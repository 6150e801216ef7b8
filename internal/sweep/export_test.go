package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// exportResult is a fixed aggregate exercising every JobResult field shape:
// omitted optionals, spectra, error strings with JSON-escaped characters.
func exportResult() *Result {
	return &Result{
		Name:    `mixer "fd" sweep`,
		Workers: 3,
		Wall:    1234567 * time.Nanosecond,
		Jobs: []JobResult{
			{
				Job:    Job{ID: 0, Method: QPSS, Point: Point{Fd: 15e3, N1: 40, N2: 30}},
				Status: StatusOK, Wall: 42 * time.Millisecond,
				Stats:     analysis.Stats{NewtonIters: 7, Unknowns: 13200},
				GainValid: true,
				Swing:     0.123,
				Spectrum: []Line{
					{K1: 2, K2: -1, Freq: 15e3, Amp: 0.06},
					{K1: 0, K2: 0, Freq: 0, Amp: 1.9},
				},
			},
			{
				Job:    Job{ID: 1, Method: Shooting, Point: Point{Fd: 15e3}},
				Status: StatusFailed, Err: "newton: no convergence <&>",
				Wall: time.Second,
			},
			{
				Job:    Job{ID: 2, Method: HB, Point: Point{N1: 8, N2: 8}},
				Status: StatusCanceled, Err: "solver: solve interrupted",
			},
		},
	}
}

// referenceJSON is the pre-streaming serialisation: one json.Encoder pass
// over the whole aggregate, with the scheduling metadata (wall clocks,
// worker count) zeroed in timing-free mode.
func referenceJSON(t *testing.T, r *Result, timing bool) []byte {
	t.Helper()
	out := r
	if !timing {
		cp := *r
		cp.Wall = 0
		cp.Workers = 0
		cp.Jobs = append([]JobResult(nil), r.Jobs...)
		for i := range cp.Jobs {
			cp.Jobs[i].Wall = 0
		}
		out = &cp
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteJSONMatchesEncoder pins the streaming writer to the exact bytes
// of the buffered encoder it replaced: server cache entries keyed on these
// bytes must not shift when the export path changes.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, timing := range []bool{true, false} {
		r := exportResult()
		var got bytes.Buffer
		if err := r.WriteJSON(&got, timing); err != nil {
			t.Fatal(err)
		}
		want := referenceJSON(t, r, timing)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("timing=%v: streaming output diverged\n got: %s\nwant: %s",
				timing, got.Bytes(), want)
		}
	}
	// Edge shapes: nil and empty job slices.
	for _, jobs := range [][]JobResult{nil, {}} {
		r := &Result{Name: "empty", Workers: 1, Jobs: jobs}
		var got bytes.Buffer
		if err := r.WriteJSON(&got, true); err != nil {
			t.Fatal(err)
		}
		want := referenceJSON(t, r, true)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("jobs=%#v: got %s want %s", jobs, got.Bytes(), want)
		}
	}
}

// TestWriteJSONTimingFree checks the timing=false output hides wall-clock
// noise without mutating the aggregate itself.
func TestWriteJSONTimingFree(t *testing.T) {
	r := exportResult()
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(a.Bytes(), []byte(`"wall_ns": 1234567`)) {
		t.Fatal("timing=false output still carries the sweep wall time")
	}
	if r.Wall == 0 || r.Jobs[0].Wall == 0 {
		t.Fatal("WriteJSON(timing=false) mutated the Result")
	}
	if err := r.WriteJSON(&b, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("timing-free serialisation is not reproducible")
	}
}

// TestJobResultWireShape pins the per-job keys, their order and the CSV
// columns: JobResult takes its counters from the embedded analysis.Stats,
// whose field order must keep producing these exact bytes. Every counter
// is distinct and nonzero so a dropped, renamed or reordered field shows.
func TestJobResultWireShape(t *testing.T) {
	r := &Result{Name: "shape", Workers: 2, Wall: 3, Jobs: []JobResult{{
		Job:    Job{ID: 3, Method: QPSS, Point: Point{Fd: 1e5, N1: 8, N2: 4}},
		Status: StatusOK, Wall: 5, Assembly: 6, Factor: 7,
		Stats: analysis.Stats{
			AssemblyTime: 8, FactorTime: 9, NewtonIters: 11, TimeSteps: 12, Unknowns: 13,
			Factorizations: 14, Refactorizations: 15, PatternReuse: 16,
			OperatorApplies: 17, PrecondBuilds: 18, BatchReuse: 19,
			LinearIters: 20, GMRESFallbacks: 21, Halvings: 22,
			AcceptedSteps: 23, RejectedSteps: 24, Refinements: 25, FinalN1: 26, FinalN2: 27,
			UsedContinuation: true, GridPoints: 28, PatternBuilds: 29,
		},
		GainValid: true, Swing: 0.25,
	}}}
	var js, csv, timed bytes.Buffer
	if err := r.WriteJSON(&js, false); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&csv, false); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&timed, true); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "name": "shape",
  "workers": 0,
  "wall_ns": 0,
  "jobs": [
    {
      "job": {
        "id": 3,
        "method": "qpss",
        "point": {
          "fd": 100000,
          "n1": 8,
          "n2": 4
        }
      },
      "status": "ok",
      "wall_ns": 0,
      "newton_iters": 11,
      "time_steps": 12,
      "unknowns": 13,
      "factorizations": 14,
      "refactorizations": 15,
      "pattern_reuse": 16,
      "operator_applies": 17,
      "precond_builds": 18,
      "batch_reuse": 19,
      "linear_iters": 20,
      "gmres_fallbacks": 21,
      "halvings": 22,
      "accepted_steps": 23,
      "rejected_steps": 24,
      "refinements": 25,
      "final_n1": 26,
      "final_n2": 27,
      "used_continuation": true,
      "gain_valid": true,
      "gain": {
        "Ratio": 0,
        "DB": 0,
        "HD2": 0,
        "HD3": 0
      },
      "swing": 0.25
    }
  ]
}
`
	if js.String() != wantJSON {
		t.Errorf("timing-free JSON:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
	wantCSV := "id,method,fd,amp,n1,n2,status,unknowns,newton_iters,time_steps,continuation," +
		"factorizations,refactorizations,pattern_reuse,operator_applies,precond_builds,batch_reuse," +
		"linear_iters,gmres_fallbacks,halvings,accepted_steps,rejected_steps,refinements,final_n1,final_n2," +
		"gain_valid,gain_ratio,gain_db,hd2,hd3,swing,spectrum,err\n" +
		"3,qpss,100000,0,8,4,ok,13,11,12,true,14,15,16,17,18,19,20,21,22,23,24,25,26,27," +
		"true,0.000000000e+00,0.000000000e+00,0.000000000e+00,0.000000000e+00,2.500000000e-01,,\n"
	if csv.String() != wantCSV {
		t.Errorf("timing-free CSV:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}
	// With timing on, the two timers come from Stats and sit between
	// wall_ns and newton_iters.
	if want := `"wall_ns": 5,
      "assembly_ns": 8,
      "factor_ns": 9,
      "newton_iters": 11,`; !strings.Contains(timed.String(), want) {
		t.Errorf("timed JSON lacks %q:\n%s", want, timed.String())
	}
}

// TestJobsFromJobList covers the explicit per-method job list: order,
// dedup, and canonicalisation of grid axes the method ignores.
func TestJobsFromJobList(t *testing.T) {
	spec := Spec{JobList: []JobSpec{
		{Method: QPSS, Point: Point{N1: 40, N2: 30}},
		{Method: HB, Point: Point{N1: 8, N2: 8}},
		{Method: Shooting, Point: Point{N1: 40, N2: 30}}, // axes ignored → zeroed
		{Method: Shooting, Point: Point{N1: 8, N2: 8}},   // dup after zeroing
		{Method: QPSS, Point: Point{N1: 40, N2: 30}},     // exact dup
	}}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := []Job{
		{ID: 0, Method: QPSS, Point: Point{N1: 40, N2: 30}},
		{ID: 1, Method: HB, Point: Point{N1: 8, N2: 8}},
		{ID: 2, Method: Shooting},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs %+v, want %d", len(jobs), jobs, len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("job %d = %+v, want %+v", i, jobs[i], want[i])
		}
	}
	if _, err := (&Spec{JobList: []JobSpec{{Method: "bogus"}}}).Jobs(); err == nil {
		t.Fatal("unknown method in JobList must fail")
	}
	if _, err := (&Spec{JobList: []JobSpec{}}).Jobs(); err == nil {
		t.Fatal("empty (non-nil) JobList must fail")
	}
}
