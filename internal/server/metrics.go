package server

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/dispatch"
	"repro/internal/la"
)

// metrics is the server's counter set, exposed at GET /metrics in
// Prometheus text exposition format (append ?format=json for a flat JSON
// object). Counters are monotone over the process lifetime; queued/running
// and the cache sizes are gauges. The three histograms aggregate per-analysis
// latency and convergence effort across every engine run.
type metrics struct {
	submitted   atomic.Int64 // jobs accepted (cache hits included)
	queued      atomic.Int64 // gauge: accepted, waiting for a slot
	running     atomic.Int64 // gauge: holding a slot
	done        atomic.Int64 // finished with a complete sweep
	failed      atomic.Int64 // finished with a hard error
	canceled    atomic.Int64 // canceled (client gone, DELETE, or drain)
	engineRuns  atomic.Int64 // sweep.Run invocations — < submitted thanks to dedup
	sharedHits  atomic.Int64 // submits coalesced onto an in-flight run
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	sweepOK     atomic.Int64 // per-analysis outcomes inside engine runs
	sweepFailed atomic.Int64
	sweepCanc   atomic.Int64
	spoolErrors atomic.Int64 // spool write failures (results not landing on disk)

	// solverTotals holds the solverSeries sums (durations in ns).
	solverTotals [len(solverSeries)]atomic.Int64

	// Fixed-bucket histograms, initialised by initHistograms (New calls it).
	jobDuration *histogram
	newtonPer   *histogram
	gmresPer    *histogram
}

// solverSeries is the per-job solver work /metrics exports: each series
// sums one analysis.Stats field over every job of every engine run.
// addSolver and snapshot both walk it, in this order; a time.Duration field
// renders as seconds.
var solverSeries = [...]struct{ name, help, field string }{
	{"mpde_solver_newton_iters_total", "Nonlinear solver iterations summed over engine runs.", "NewtonIters"},
	{"mpde_solver_factorizations_total", "Full sparse-LU factorisations summed over engine runs.", "Factorizations"},
	{"mpde_solver_refactorizations_total", "Numeric-only LU refactorisations that reused a symbolic analysis.", "Refactorizations"},
	{"mpde_solver_pattern_reuse_total", "Jacobian assemblies restamped into an existing sparsity pattern.", "PatternReuse"},
	{"mpde_solver_operator_applies_total", "Matrix-free Jacobian-vector products summed over engine runs.", "OperatorApplies"},
	{"mpde_solver_precond_builds_total", "Iterative-mode preconditioner builds summed over engine runs.", "PrecondBuilds"},
	{"mpde_solver_batch_reuse_total", "Batched line-preconditioner slots refactored against the batch's shared symbolic analysis.", "BatchReuse"},
	{"mpde_solver_linear_iters_total", "Inner GMRES iterations summed over engine runs.", "LinearIters"},
	{"mpde_solver_gmres_fallbacks_total", "GMRES failures rescued by a direct solve.", "GMRESFallbacks"},
	{"mpde_solver_damping_halvings_total", "Newton damping step halvings summed over engine runs.", "Halvings"},
	{"mpde_solver_step_rejections_total", "Envelope LTE steps rejected and retried smaller.", "RejectedSteps"},
	{"mpde_solver_grid_refinements_total", "Adaptive grid/step refinement rounds beyond the initial solve.", "Refinements"},
	{"mpde_solver_assembly_seconds_total", "Residual/Jacobian assembly time summed over engine runs.", "AssemblyTime"},
	{"mpde_solver_factor_seconds_total", "Matrix factorisation time summed over engine runs.", "FactorTime"},
}

// addSolver adds one job's solver work to the solverSeries totals.
func (m *metrics) addSolver(st *analysis.Stats) {
	v := reflect.ValueOf(st).Elem()
	for i, s := range solverSeries {
		m.solverTotals[i].Add(v.FieldByName(s.field).Int())
	}
}

// initHistograms allocates the histogram set. Bucket bounds are fixed at
// compile time so two servers' scrapes are always mergeable.
func (m *metrics) initHistograms() {
	m.jobDuration = newHistogram("mpde_job_duration_seconds",
		"Per-analysis wall-clock duration inside engine runs.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 60})
	m.newtonPer = newHistogram("mpde_solver_newton_iters",
		"Newton iterations per analysis solve.",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500})
	m.gmresPer = newHistogram("mpde_solver_gmres_iters_per_solve",
		"Inner GMRES iterations per analysis solve (0 on the direct path).",
		[]float64{0, 5, 10, 25, 50, 100, 250, 1000})
}

// histogram is a fixed-bucket Prometheus histogram: lock-free observes
// (atomic bucket counters plus a CAS-accumulated float sum) and a consistent-
// enough snapshot for text exposition.
type histogram struct {
	name, help string
	bounds     []float64 // upper bucket bounds, ascending; +Inf implicit
	counts     []atomic.Int64
	sumBits    atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *histogram {
	return &histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample. Nil-safe so a zero-value metrics struct (unit
// tests that never call New) cannot panic the finalize path.
func (h *histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// writeProm renders the histogram in Prometheus exposition format:
// cumulative _bucket{le=...} counts, then _sum and _count.
func (h *histogram) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, strconv.FormatFloat(math.Float64frombits(h.sumBits.Load()), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// count returns the total number of observations.
func (h *histogram) count() int64 {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
	}
	return cum
}

func (m *metrics) histograms() []*histogram {
	if m.jobDuration == nil {
		return nil
	}
	return []*histogram{m.jobDuration, m.newtonPer, m.gmresPer}
}

// metricPoint is one rendered sample. Integer-valued points carry Int with
// IsInt set and render with full precision — a float64 %g round-trips
// counters only up to 2^53 and then silently drops increments (and flips to
// e-notation, which some scrapers reject).
type metricPoint struct {
	Name  string
	Help  string
	Gauge bool
	Value float64
	Int   int64
	IsInt bool
}

func intPoint(name, help string, gauge bool, v int64) metricPoint {
	return metricPoint{Name: name, Help: help, Gauge: gauge, Int: v, IsInt: true}
}

func floatPoint(name, help string, gauge bool, v float64) metricPoint {
	return metricPoint{Name: name, Help: help, Gauge: gauge, Value: v}
}

// render returns the sample's exposition value.
func (p metricPoint) render() string {
	if p.IsInt {
		return strconv.FormatInt(p.Int, 10)
	}
	return strconv.FormatFloat(p.Value, 'g', -1, 64)
}

// snapshot renders the full metric set in stable order. ds is the
// dispatch plane's state (queue depth, leases, worker registry); both the
// Prometheus and JSON renderings are built from the same points, so the
// two formats cannot drift apart.
func (m *metrics) snapshot(cache resultCache, start time.Time, ds dispatch.Stats) []metricPoint {
	pts := []metricPoint{
		floatPoint("mpde_uptime_seconds", "Seconds since the server started.", true, time.Since(start).Seconds()),
		intPoint("mpde_jobs_submitted_total", "Jobs accepted, including cache hits.", false, m.submitted.Load()),
		intPoint("mpde_jobs_queued", "Jobs waiting for a simulation slot.", true, m.queued.Load()),
		intPoint("mpde_jobs_running", "Jobs holding a simulation slot.", true, m.running.Load()),
		intPoint("mpde_jobs_done_total", "Jobs finished with a complete sweep.", false, m.done.Load()),
		intPoint("mpde_jobs_failed_total", "Jobs finished with a hard error.", false, m.failed.Load()),
		intPoint("mpde_jobs_canceled_total", "Jobs canceled by client disconnect, DELETE, or drain.", false, m.canceled.Load()),
		intPoint("mpde_engine_runs_total", "sweep.Run invocations; submits minus cache and singleflight hits.", false, m.engineRuns.Load()),
		intPoint("mpde_singleflight_shared_total", "Submits coalesced onto an identical in-flight run.", false, m.sharedHits.Load()),
		intPoint("mpde_cache_hits_total", "Submits served from the result cache.", false, m.cacheHits.Load()),
		intPoint("mpde_cache_misses_total", "Cacheable submits that had to run.", false, m.cacheMisses.Load()),
		intPoint("mpde_cache_entries", "Resident result-cache entries.", true, int64(cache.Len())),
		intPoint("mpde_cache_bytes", "Resident result-cache bytes.", true, int64(cache.Bytes())),
	}
	duration := reflect.TypeOf(time.Duration(0))
	statsType := reflect.TypeOf(analysis.Stats{})
	for i, s := range solverSeries {
		v := m.solverTotals[i].Load()
		if f, _ := statsType.FieldByName(s.field); f.Type == duration {
			pts = append(pts, floatPoint(s.name, s.help, false, float64(v)/1e9))
		} else {
			pts = append(pts, intPoint(s.name, s.help, false, v))
		}
	}
	// The symbolic-LU and block-stencil tables are process-wide, outside
	// any job's counters: per-job stats never depend on what earlier jobs
	// left in them.
	symHits, symMisses, symRejections := la.SymbolicCacheStats()
	stHits, stMisses := la.StencilCacheStats()
	pts = append(pts,
		intPoint("mpde_la_symbolic_cache_hits_total", "Sparse-LU factorisations served by a pivot-verified refactor of a stored symbolic analysis.", false, symHits),
		intPoint("mpde_la_symbolic_cache_misses_total", "Sparse-LU factorisations that found no stored symbolic analysis for their pattern.", false, symMisses),
		intPoint("mpde_la_symbolic_cache_rejections_total", "Stored symbolic analyses whose pivots the new values would not pick; factored fresh.", false, symRejections),
		intPoint("mpde_la_stencil_cache_hits_total", "Block-stencil Jacobian plans loaded from the table of compiled plans.", false, stHits),
		intPoint("mpde_la_stencil_cache_misses_total", "Block-stencil Jacobian plans compiled because the table held none of their shape.", false, stMisses),
		intPoint("mpde_sweep_jobs_ok_total", "Per-analysis ok outcomes inside engine runs.", false, m.sweepOK.Load()),
		intPoint("mpde_sweep_jobs_failed_total", "Per-analysis failures inside engine runs.", false, m.sweepFailed.Load()),
		intPoint("mpde_sweep_jobs_canceled_total", "Per-analysis cancellations inside engine runs.", false, m.sweepCanc.Load()),
		intPoint("mpde_spool_errors_total", "Finished-result spool writes that failed (results not landing on disk).", false, m.spoolErrors.Load()),
		intPoint("mpde_queue_depth", "Dispatch shards waiting for a worker lease.", true, ds.Queue.Depth),
		intPoint("mpde_leases_active", "Dispatch shards currently leased to workers.", true, ds.Queue.LeasesActive),
		intPoint("mpde_lease_expirations_total", "Shard leases that expired without renewal (worker presumed dead).", false, ds.Queue.Expirations),
		intPoint("mpde_shard_retries_total", "Shards re-enqueued after a failed or expired attempt.", false, ds.Queue.Retries),
		intPoint("mpde_dispatch_workers", "Workers seen by the coordinator within the liveness window.", true, ds.Workers),
		intPoint("mpde_dispatch_shards_total", "Shards enqueued to the worker fleet.", false, ds.ShardsDispatched),
		intPoint("mpde_dispatch_shard_cache_hits_total", "Shards served from the shared shard cache without dispatching.", false, ds.ShardCacheHits),
		intPoint("mpde_dispatch_recovered_total", "Journalled shards re-enqueued by boot recovery.", false, ds.Recovered),
	)
	return pts
}

// writeProm renders Prometheus text exposition format.
func writeProm(w io.Writer, pts []metricPoint, hists []*histogram) {
	for _, p := range pts {
		kind := "counter"
		if p.Gauge {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", p.Name, p.Help, p.Name, kind, p.Name, p.render())
	}
	for _, h := range hists {
		h.writeProm(w)
	}
}

// writeMetricsJSON renders a flat {"name": value} object with sorted keys.
// Histograms contribute their _sum and _count; per-bucket counts stay
// Prometheus-only. Integer points render as exact decimal integers — %g
// would collapse counters past 2^53 and switch to e-notation.
func writeMetricsJSON(w io.Writer, pts []metricPoint, hists []*histogram) {
	sorted := append([]metricPoint(nil), pts...)
	for _, h := range hists {
		sorted = append(sorted,
			floatPoint(h.name+"_sum", "", false, math.Float64frombits(h.sumBits.Load())),
			intPoint(h.name+"_count", "", false, h.count()))
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	io.WriteString(w, "{")
	for i, p := range sorted {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "\n  %q: %s", p.Name, p.render())
	}
	io.WriteString(w, "\n}\n")
}
