package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/transient"
)

// dcStart returns ckt's DC operating point replicated over points grid
// points: the start QPSS takes when the envelope march fails. Tests that
// pin the grid solve's own work pass it as X0, so no march runs.
func dcStart(t *testing.T, ckt *circuit.Circuit, points int) []float64 {
	t.Helper()
	ckt.Finalize()
	x, err := transient.StartState(context.Background(), ckt, nil, 0, points, "test")
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// tracedQPSS solves under a recorder and also returns the recorded spans.
func tracedQPSS(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Solution, []obs.SpanRecord, error) {
	rec := obs.NewRecorder()
	sol, err := QPSS(obs.WithRecorder(ctx, rec), ckt, opt)
	return sol, rec.Snapshot(), err
}

// spanStart returns the start attribute of the recorded qpss.solve span.
func spanStart(spans []obs.SpanRecord) string {
	for _, s := range spans {
		if s.Name == "qpss.solve" {
			v, _ := s.Attrs["start"].(string)
			return v
		}
	}
	return ""
}

// TestQPSSMarchStart: with X0 nil the solve starts from the march, which
// leaves the grid Newton one or two iterations, and reports start=march;
// an explicit X0 reports start=x0. Both land on the same orbit, within
// the Newton tolerance. At N2 = 64
// the 64 steps of Td/64 sum to just below Td, which must not cost the
// march a sliver step.
func TestQPSSMarchStart(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	opt := Options{N1: 16, N2: 64, Shear: sh}
	ckt := nonlinearMixer(sh)
	sol, spans, err := tracedQPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanStart(spans); got != "march" {
		t.Fatalf("start = %q, want march", got)
	}
	grid, lines := 0, 0
	for _, s := range spans {
		if s.Name != "newton.solve" {
			continue
		}
		switch s.Attrs["unknowns"] {
		case int64(len(sol.X)):
			grid++
			if it := s.Attrs["iterations"].(int64); it > 2 {
				t.Errorf("grid Newton took %d iterations from the march start, want ≤ 2", it)
			}
		case int64(opt.N1 * ckt.Size()):
			lines++
		}
	}
	if grid != 1 || lines != opt.N2+1 {
		t.Fatalf("%d grid and %d line solves, want 1 and %d (the initial line and one per slow step)", grid, lines, opt.N2+1)
	}

	dcOpt := opt
	dcOpt.X0 = dcStart(t, ckt, opt.N1*opt.N2)
	ref, spans, err := tracedQPSS(context.Background(), ckt, dcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanStart(spans); got != "x0" {
		t.Fatalf("start = %q with X0 set, want x0", got)
	}
	for i := range sol.X {
		if d := sol.X[i] - ref.X[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("X[%d] = %v from the march, %v from DC", i, sol.X[i], ref.X[i])
		}
	}
}

// TestQPSSMarchFailureFallsBackToDC: on the hostile clamp a starved line
// Newton fails the march's first slow step. The solve falls back to the
// DC start, reports start=dc, and still converges (through continuation);
// the march paid for one failed line solve and no halving.
func TestQPSSMarchFailureFallsBackToDC(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt := hardMixer(sh)
	opt := Options{N1: 24, N2: 12, Shear: sh}
	opt.Newton = solver.NewOptions()
	opt.Newton.MaxIter = 6
	sol, spans, err := tracedQPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatalf("the DC fallback did not converge: %v", err)
	}
	if got := spanStart(spans); got != "dc" {
		t.Fatalf("start = %q, want dc", got)
	}
	failed := 0
	for _, s := range spans {
		if s.Name == "newton.solve" && s.Attrs["unknowns"] == int64(opt.N1*ckt.Size()) && s.Attrs["converged"] == int64(0) {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed line solves, want 1: the start must not halve", failed)
	}
	res, err := sol.ResidualCheck(Options{N1: opt.N1, N2: opt.N2, Shear: sh})
	if err != nil || res > 1e-5 {
		t.Fatalf("residual %v (%v) after the DC fallback", res, err)
	}
}

// TestQPSSCanceledMidMarch: a context canceled during the march ends the
// solve with the march's interrupt, which wraps context.Canceled; the
// solve does not fall back to the DC start and never reaches the grid.
func TestQPSSCanceledMidMarch(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	opt := Options{N1: 24, N2: 16, Shear: sh}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iters := 0
	opt.Newton.Progress = func(int, float64) {
		if iters++; iters == 8 {
			cancel()
		}
	}
	sol, spans, err := tracedQPSS(ctx, ckt, opt)
	if sol != nil || !errors.Is(err, context.Canceled) || !solver.Interrupted(err) {
		t.Fatalf("want an interrupt wrapping context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "envelope interrupted") {
		t.Fatalf("the interrupt did not come from the march: %v", err)
	}
	for _, s := range spans {
		if s.Name == "newton.solve" && s.Attrs["unknowns"] == int64(opt.N1*opt.N2*ckt.Size()) {
			t.Fatal("a canceled march fell back to a grid solve")
		}
	}
}

// TestEnvelopeMarchAllocsFlat: the march's steps run on one Newton
// workspace, line assembler and source table, so a warm march start
// allocates the same at Td/16 and at Td/64 steps.
func TestEnvelopeMarchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	allocs := func(n2 int) float64 {
		opt := Options{N1: 16, N2: n2, Shear: sh}
		opt.Newton = solver.NewOptions()
		dc := dcStart(t, ckt, opt.N1*n2)
		x := make([]float64, len(dc))
		return testing.AllocsPerRun(5, func() {
			copy(x, dc)
			if _, err := marchStart(context.Background(), ckt, opt, x); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a64 := allocs(16), allocs(64)
	t.Logf("allocations per march: %v at Td/16, %v at Td/64", a16, a64)
	if a16 != a64 {
		t.Fatalf("a march allocates %v at Td/16 and %v at Td/64: its steps allocate", a16, a64)
	}
}
