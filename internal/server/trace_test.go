package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/solver"
)

// TestTraceEndpoint submits a traced deck, fetches the span tree, and checks
// the acceptance identity: the per-iteration convergence records sum exactly
// to the job's reported Newton iterations.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})

	// Warm the cache with an untraced run first: the traced submit must
	// bypass the lookup and actually solve.
	resp := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced simulate: %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck, "trace": true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced simulate: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("traced submit served from cache (X-Cache=%s): trace would be empty", got)
	}
	id := resp.Header.Get("X-Job-ID")
	var result struct {
		Jobs []struct {
			NewtonIters int `json:"newton_iters"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	wantIters := 0
	for _, jr := range result.Jobs {
		wantIters += jr.NewtonIters
	}
	if wantIters == 0 {
		t.Fatal("deck solved with zero Newton iterations; test deck is broken")
	}

	tr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", tr.StatusCode)
	}
	var tresp TraceResponse
	if err := json.NewDecoder(tr.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if len(tresp.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	gotIters := 0
	for _, ce := range tresp.Convergence {
		if ce.Name != "newton.solve" {
			t.Fatalf("convergence entry on span %q, want newton.solve", ce.Name)
		}
		if len(ce.Records) == 0 {
			t.Fatalf("span %d has an empty convergence record set", ce.Span)
		}
		for i, rec := range ce.Records {
			if rec.Iter != i+1 {
				t.Fatalf("span %d record %d: iter %d", ce.Span, i, rec.Iter)
			}
		}
		gotIters += len(ce.Records)
	}
	if gotIters != wantIters {
		t.Fatalf("convergence records sum to %d iterations, job reported %d", gotIters, wantIters)
	}

	// An untraced job must 404 with a hint, not serve an empty trace.
	resp = postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck, "no_cache": true})
	untracedID := resp.Header.Get("X-Job-ID")
	resp.Body.Close()
	tr2, err := http.Get(ts.URL + "/v1/jobs/" + untracedID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced job trace: %d, want 404", tr2.StatusCode)
	}
}

// TestMetricsExportGMRESFallbacksAndHalvings is the regression test for the
// counters that used to exist in solver.Stats but never reached /metrics:
// it scrapes the endpoint and fails if the exposition drops them.
func TestMetricsExportGMRESFallbacksAndHalvings(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.metrics.addSolver(&analysis.Stats{GMRESFallbacks: 3, Halvings: 7, LinearIters: 41})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"mpde_solver_gmres_fallbacks_total 3\n",
		"mpde_solver_damping_halvings_total 7\n",
		"mpde_solver_linear_iters_total 41\n",
		"# TYPE mpde_solver_gmres_fallbacks_total counter",
		"# TYPE mpde_solver_damping_halvings_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWriteMetricsJSONIntegerExact pins the integer-exact JSON rendering:
// the old %g formatting collapsed counters past 2^53 and emitted e-notation.
func TestWriteMetricsJSONIntegerExact(t *testing.T) {
	cases := []struct {
		name string
		pt   metricPoint
		want string
	}{
		{"small counter", intPoint("m_a", "", false, 42), `"m_a": 42`},
		{"zero", intPoint("m_b", "", false, 0), `"m_b": 0`},
		{"above 2^53", intPoint("m_c", "", false, 9007199254740993), `"m_c": 9007199254740993`},
		{"max int64", intPoint("m_d", "", false, math.MaxInt64), `"m_d": 9223372036854775807`},
		{"float gauge", floatPoint("m_e", "", true, 0.5), `"m_e": 0.5`},
		{"float seconds", floatPoint("m_f", "", false, 1.25e-3), `"m_f": 0.00125`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			writeMetricsJSON(&buf, []metricPoint{tc.pt}, nil)
			if !strings.Contains(buf.String(), tc.want) {
				t.Fatalf("rendered %q, want it to contain %q", buf.String(), tc.want)
			}
			var m map[string]json.Number
			if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
				t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
			}
		})
	}

	// The Prometheus text form must be integer-exact too.
	var buf bytes.Buffer
	writeProm(&buf, []metricPoint{intPoint("m_big", "h", false, 9007199254740993)}, nil)
	if !strings.Contains(buf.String(), "m_big 9007199254740993\n") {
		t.Fatalf("prom rendering lost integer precision: %s", buf.String())
	}
}

// TestSolverStatsMetricsParity walks solver.Stats and analysis.Stats by
// reflection and asserts every numeric field either feeds a solverSeries
// entry (matched by field name; the two structs share their counter names)
// or is allowlisted with a reason — so a new counter in either struct
// cannot silently stay unexported. Every series must name a numeric
// analysis.Stats field.
func TestSolverStatsMetricsParity(t *testing.T) {
	// Numeric fields deliberately without a series, and why.
	allow := map[string]string{
		"Residual":      "per-solve convergence detail, visible in traces",
		"StepNorm":      "per-solve convergence detail, visible in traces",
		"FillFactor":    "point-in-time diagnostic, nothing to sum across solves",
		"JacobianEvals": "not threaded through sweep.JobResult; promote it there before exporting it",
		"AcceptedSteps": "derivable from TimeSteps minus RejectedSteps",
		"PatternBuilds": "complement of PatternReuse; reuse is the signal",
		"TimeSteps":     "grid/solve-shape descriptor, not load",
		"Unknowns":      "grid/solve-shape descriptor, not load",
		"GridPoints":    "grid/solve-shape descriptor, not load",
		"FinalN1":       "grid/solve-shape descriptor, not load",
		"FinalN2":       "grid/solve-shape descriptor, not load",
	}
	exported := map[string]bool{}
	statsType := reflect.TypeOf(analysis.Stats{})
	for _, s := range solverSeries {
		f, ok := statsType.FieldByName(s.field)
		if !ok || (f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Int64) {
			t.Errorf("series %s names %q, which is not an integer analysis.Stats field", s.name, s.field)
		}
		exported[s.field] = true
	}

	for _, st := range []reflect.Type{reflect.TypeOf(solver.Stats{}), statsType} {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64, reflect.Float64:
			default:
				continue // bools, slices: not numeric counters
			}
			if _, allowed := allow[f.Name]; !exported[f.Name] && !allowed {
				t.Errorf("%s.%s is numeric but neither exported at /metrics nor allowlisted", st, f.Name)
			}
		}
	}
}

// TestHistogramExposition checks the Prometheus histogram invariants on the
// rendered text: cumulative buckets, +Inf bucket equal to _count, and a
// _sum consistent with the observations.
func TestHistogramExposition(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, v := range []float64{0.0004, 0.003, 0.08, 2.0} {
		s.metrics.jobDuration.Observe(v)
	}
	s.metrics.newtonPer.Observe(7)
	s.metrics.gmresPer.Observe(0)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, h := range []string{"mpde_job_duration_seconds", "mpde_solver_newton_iters", "mpde_solver_gmres_iters_per_solve"} {
		if !strings.Contains(body, "# TYPE "+h+" histogram\n") {
			t.Fatalf("missing histogram TYPE line for %s", h)
		}
		prev := int64(-1)
		var infCount, count int64 = -1, -1
		for _, line := range strings.Split(body, "\n") {
			switch {
			case strings.HasPrefix(line, h+"_bucket{"):
				n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				if err != nil {
					t.Fatalf("bad bucket line %q: %v", line, err)
				}
				if n < prev {
					t.Fatalf("%s buckets not cumulative: %q after %d", h, line, prev)
				}
				prev = n
				if strings.Contains(line, `le="+Inf"`) {
					infCount = n
				}
			case strings.HasPrefix(line, h+"_count "):
				count, _ = strconv.ParseInt(strings.TrimPrefix(line, h+"_count "), 10, 64)
			}
		}
		if infCount < 0 || count < 0 {
			t.Fatalf("%s missing +Inf bucket or _count", h)
		}
		if infCount != count {
			t.Fatalf("%s +Inf bucket %d != _count %d", h, infCount, count)
		}
	}
	if !strings.Contains(body, fmt.Sprintf("mpde_job_duration_seconds_count %d\n", 4)) {
		t.Fatalf("job duration count wrong:\n%s", body)
	}

	// The JSON form carries _sum/_count.
	m := metricsSnapshot(t, ts.URL)
	if got := m["mpde_job_duration_seconds_count"]; got != 4 {
		t.Fatalf("JSON histogram count = %v, want 4", got)
	}
	wantSum := 0.0004 + 0.003 + 0.08 + 2.0
	if got := m["mpde_job_duration_seconds_sum"]; math.Abs(got-wantSum) > 1e-12 {
		t.Fatalf("JSON histogram sum = %v, want %v", got, wantSum)
	}
}

// TestDebugHandlerServesPprof mounts the opt-in debug mux and checks the
// pprof index responds.
func TestDebugHandlerServesPprof(t *testing.T) {
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// TestSymbolicCacheMetricsExposed: the process-wide symbolic-LU table's
// counters appear in both renderings, and a repeated factorisation shows
// up as a hit.
func TestSymbolicCacheMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, 4)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 3)
	a := tr.Compress()
	before, _, _ := la.SymbolicCacheStats()
	for r := 0; r < 2; r++ {
		if _, err := la.SparseLUFactor(a, 0.001); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	names := []string{
		"mpde_la_symbolic_cache_hits_total",
		"mpde_la_symbolic_cache_misses_total",
		"mpde_la_symbolic_cache_rejections_total",
	}
	for _, n := range names {
		if !bytes.Contains(prom, []byte("\n# TYPE "+n+" counter\n"+n+" ")) {
			t.Errorf("/metrics missing counter %s", n)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	for _, n := range names {
		if _, ok := m[n]; !ok {
			t.Errorf("/metrics?format=json missing %s", n)
		}
	}
	if got := m["mpde_la_symbolic_cache_hits_total"]; got < float64(before+1) {
		t.Errorf("mpde_la_symbolic_cache_hits_total = %v after a repeated factorisation, want at least %d", got, before+1)
	}
}

// TestStencilCacheMetricsExposed: the process-wide block-stencil table's
// counters appear in both renderings, and a repeated QPSS solve loads its
// Jacobian plans as hits.
func TestStencilCacheMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mix := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6, LoadC: 1e-9})
	opt := core.Options{N1: 12, N2: 8, Shear: mix.Shear}
	if _, err := core.QPSS(context.Background(), mix.Ckt, opt); err != nil {
		t.Fatal(err)
	}
	before, _ := la.StencilCacheStats()
	if _, err := core.QPSS(context.Background(), mix.Ckt, opt); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	names := []string{"mpde_la_stencil_cache_hits_total", "mpde_la_stencil_cache_misses_total"}
	for _, n := range names {
		if !bytes.Contains(prom, []byte("\n# TYPE "+n+" counter\n"+n+" ")) {
			t.Errorf("/metrics missing counter %s", n)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	for _, n := range names {
		if _, ok := m[n]; !ok {
			t.Errorf("/metrics?format=json missing %s", n)
		}
	}
	if got := m["mpde_la_stencil_cache_hits_total"]; got < float64(before+1) {
		t.Errorf("mpde_la_stencil_cache_hits_total = %v after a repeated QPSS solve, want at least %d", got, before+1)
	}
}
