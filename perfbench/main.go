// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks the output of every operation, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload mixer-direct --seed 1 --seconds 10 --trace 0
//
// The workloads are the paper's balanced mixer solved with direct LU
// (mixer-direct) and matrix-free GMRES (mixer-matfree), the
// speedup-vs-disparity sweep against shooting and transient
// (disparity-sweep), and an in-process server with two dispatch workers
// under a closed-loop request mix (service).
//
// With --trace 0 the metrics are the end-to-end figures, all taken from
// untraced operations. Their times are scaled to a nominal host speed
// measured beside them (see calib.go); the raw figures are printed too.
// With --trace 1 the run alternates traced and untraced operations and
// reports where the traced time went, layer by layer, in raw seconds. The
// full table with the host fingerprint, and with --trace 1 a Chrome trace
// of one traced operation, are written to the --out directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// setupReps is how often a run builds its workload; setup_s is the median.
const setupReps = 5

// env is one set-up workload, ready to run operations.
type env interface {
	// run performs operations until deadline. With traced set it alternates
	// traced and untraced operations.
	run(deadline time.Time, traced bool) []sample
	// report adds the workload's own metrics, computed from the samples of
	// one run, to r.
	report(r *report, samples []sample, traced bool)
	close()
}

// workload builds an env from the checkout root and the seed; the build
// includes one checked warm-up operation.
type workload struct {
	name  string
	setup func(root string, seed int64) (env, error)
}

var workloads = []workload{
	{"mixer-direct", setupMixerDirect},
	{"mixer-matfree", setupMixerMatfree},
	{"disparity-sweep", setupSweep},
	{"service", setupService},
}

// sample is one operation's outcome.
type sample struct {
	wall   time.Duration
	kind   string // sub-operation label, e.g. "cold" or "hit"
	traced bool
	err    error // an error or a failed output check
	// parts holds named sub-timings of the operation.
	parts map[string]time.Duration
	// budget holds the traced operation's layer times (seconds) and
	// counts its per-operation counters.
	budget budget
	counts counters
	// jobs holds per-job walls of a sweep operation, keyed by metric name.
	jobs map[string]time.Duration
	// ref is the host reference time (ms) when the operation started.
	ref float64
	// block, when non-zero, names the request-mix cycle the sample belongs
	// to; op_p50_s then times whole cycles (see opWalls).
	block int
	// mpde is the Newton work of the operation's MPDE solves.
	mpde mpdeStats
	// spans is kept for the first traced operation, for the Chrome trace.
	spans []obs.SpanRecord
	// dropped counts spans the operation's recorder discarded.
	dropped int64
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mixer-direct, mixer-matfree, disparity-sweep or service")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer budget of traced operations")
	root := fs.String("root", ".", "repository root (testdata is read from here)")
	out := fs.String("out", ".bench_build", "directory for the report and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	traced := *trace == 1
	host := fingerprint(*root, *seed)

	var e env
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = wl.setup(*root, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", wl.name, err)
			return 1
		}
		d := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, d)
		ref := median([]float64{measureRef(), measureRef(), measureRef()})
		setups = append(setups, d*refNominalMS/ref)
	}
	defer e.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	samples := e.run(start.Add(time.Duration(*seconds*float64(time.Second))), traced)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	r := newReport(wl.name, host, traced)
	// An operation fails on an error, a failed output check, or a trace
	// that lost spans.
	failed := 0
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.dropped > 0 {
			s.err = fmt.Errorf("recorder dropped %d spans", s.dropped)
		}
		if s.err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(stderr, "perfbench: %s %s operation failed: %v\n", wl.name, s.kind, s.err)
			}
		}
	}
	n := len(samples)
	r.add("setup_s", median(setups), "s", len(setups))
	r.add("failed_frac", float64(failed)/float64(max(n, 1)), "frac", n)
	if !traced {
		// Times are scaled to the nominal host; throughput by the
		// wall-weighted mean of the same factors.
		var sumRaw, sumNorm float64
		for _, s := range samples {
			sumRaw += s.wall.Seconds()
			sumNorm += s.norm()
		}
		raw, norm := opWalls(samples)
		throughput := float64(n) / elapsed.Seconds()
		r.add("op_p50_s", median(norm), "s", len(norm))
		r.add("ops_per_s", throughput*sumRaw/sumNorm, "1/s", n)
		r.add("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(max(n, 1)), "MB", n)
		r.add("raw.setup_s", median(rawSetups), "s", len(rawSetups))
		r.add("raw.op_p50_s", median(raw), "s", len(raw))
		r.add("raw.ops_per_s", throughput, "1/s", n)
	}
	ref, refs := refMedian()
	r.add("host.ref_ms", ref, "ms", refs)
	// The workload's report runs first: the service adds its probe-timed
	// layers to the traced samples' budgets before they are summed.
	e.report(r, samples, traced)
	if traced {
		addBudget(r, samples)
		if err := writeChromeTrace(*out, wl.name, samples); err != nil {
			fmt.Fprintf(stderr, "perfbench: chrome trace: %v\n", err)
		}
	}
	correct := failed == 0 && n > 0
	r.print(stdout)
	if err := r.write(*out); err != nil {
		fmt.Fprintf(stderr, "perfbench: report: %v\n", err)
	}
	res := map[string]any{
		"correct":   correct,
		"attempted": n,
		"failed":    failed,
		"metrics":   r.gated(traced),
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// opWalls returns the raw and scaled wall of every operation op_p50_s
// times. A sample without a block is one operation. Samples sharing a
// block are one cycle of a request mix, timed as the sum of its requests:
// the median of single requests from a mix of slow and fast kinds would
// sit in the fast kind's tail and swing from run to run. Cycles cut short
// by the deadline are left out.
func opWalls(samples []sample) (raw, norm []float64) {
	type cycle struct {
		raw, norm float64
		n         int
	}
	var blocks []int
	cycles := map[int]*cycle{}
	for _, s := range samples {
		if s.block == 0 {
			raw = append(raw, s.wall.Seconds())
			norm = append(norm, s.norm())
			continue
		}
		c, ok := cycles[s.block]
		if !ok {
			c = &cycle{}
			cycles[s.block] = c
			blocks = append(blocks, s.block)
		}
		c.raw += s.wall.Seconds()
		c.norm += s.norm()
		c.n++
	}
	for _, b := range blocks {
		if c := cycles[b]; c.n == coldEvery {
			raw = append(raw, c.raw)
			norm = append(norm, c.norm)
		}
	}
	return raw, norm
}

// secondsOf returns the walls, in seconds, of the samples keep selects.
func secondsOf(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.wall.Seconds())
		}
	}
	return out
}

// partSeconds collects sub-timing name over the untraced samples, scaled
// to the nominal host.
func partSeconds(samples []sample, name string) []float64 {
	var out []float64
	for _, s := range samples {
		if d, ok := s.parts[name]; ok && !s.traced {
			out = append(out, d.Seconds()*s.scale())
		}
	}
	return out
}

// scale is the factor from the sample's host speed to the nominal host's.
func (s sample) scale() float64 {
	if s.ref <= 0 {
		return 1
	}
	return refNominalMS / s.ref
}

// norm is the sample's wall time on the nominal host.
func (s sample) norm() float64 { return s.wall.Seconds() * s.scale() }

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// repeatMedian runs f until it has run at least reps times and for at
// least minDur, and returns the median duration of one call in seconds
// and the number of calls.
func repeatMedian(reps int, minDur time.Duration, f func()) (float64, int) {
	var ds []float64
	start := time.Now()
	for len(ds) < reps || time.Since(start) < minDur {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), len(ds)
}

// recorderLimit bounds a traced operation's recorder. A traced sweep
// records one span per baseline time step (about 10^5), far below it.
const recorderLimit = 1 << 20

// minOps is the number of operations a run makes however short it is: one,
// or a traced and an untraced one with tracing on.
func minOps(traced bool) int {
	if traced {
		return 2
	}
	return 1
}

// runOps runs op until deadline. With traced set, every other operation
// runs under a fresh recorder inside a bench.op span, and its spans are
// charged to the operation's budget.
func runOps(deadline time.Time, traced bool, op func(context.Context) sample) []sample {
	var out []sample
	for i := 0; i < minOps(traced) || time.Now().Before(deadline); i++ {
		calibrate()
		ref := refNow()
		if !traced || i%2 == 1 {
			s := op(context.Background())
			s.ref = ref
			out = append(out, s)
			continue
		}
		rec := obs.NewRecorderLimit(recorderLimit)
		ctx, span := obs.Start(obs.WithRecorder(context.Background(), rec), spanOp)
		s := op(ctx)
		span.End()
		spans := rec.Snapshot()
		s.traced, s.dropped = true, rec.Dropped()
		for _, sr := range spans {
			if sr.Name == spanOp {
				s.wall = sr.Duration
			}
		}
		s.budget = budget{}
		s.budget.chargeTree(obs.Tree(spans))
		s.budget.splitNewton(s.mpde)
		if i == 0 {
			s.spans = spans
		}
		out = append(out, s)
	}
	return out
}

// counters maps per-operation counter names to values.
type counters map[string]float64

// counterNames are the per-layer counters every workload reports.
var counterNames = []string{
	"la.factorizations", "la.refactorizations", "la.batch_reuse",
	"solver.newton_iters", "solver.halvings", "solver.linear_iters",
	"solver.operator_applies", "solver.precond_builds", "solver.gmres_fallbacks",
	"core.pattern_reuse", "core.refinements",
}

// addStats adds an analysis's solver counters.
func (c counters) addStats(st analysis.Stats) {
	c["la.factorizations"] += float64(st.Factorizations)
	c["la.refactorizations"] += float64(st.Refactorizations)
	c["la.batch_reuse"] += float64(st.BatchReuse)
	c["solver.newton_iters"] += float64(st.NewtonIters)
	c["solver.halvings"] += float64(st.Halvings)
	c["solver.linear_iters"] += float64(st.LinearIters)
	c["solver.operator_applies"] += float64(st.OperatorApplies)
	c["solver.precond_builds"] += float64(st.PrecondBuilds)
	c["solver.gmres_fallbacks"] += float64(st.GMRESFallbacks)
	c["core.pattern_reuse"] += float64(st.PatternReuse)
	c["core.refinements"] += float64(st.Refinements)
}

// outDir resolves the report directory and creates it.
func outDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
