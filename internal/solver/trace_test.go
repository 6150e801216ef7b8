package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/obs"
)

func TestSolveTraceDisabledStaysNil(t *testing.T) {
	x := []float64{1}
	st, err := Solve(context.Background(), sqrtSystem(2), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != nil {
		t.Fatalf("Stats.Trace recorded without a recorder in context: %v", st.Trace)
	}
}

func TestSolveTraceRecordsEveryIteration(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	x := []float64{1.5}
	st, err := Solve(ctx, sqrtSystem(2), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != st.NewtonIters {
		t.Fatalf("len(Trace) = %d, want NewtonIters = %d", len(st.Trace), st.NewtonIters)
	}
	var halvings int
	for i, tr := range st.Trace {
		if tr.Iter != i+1 {
			t.Fatalf("Trace[%d].Iter = %d, want %d", i, tr.Iter, i+1)
		}
		if tr.Alpha <= 0 || tr.Alpha > 1 {
			t.Fatalf("Trace[%d].Alpha = %v", i, tr.Alpha)
		}
		if !tr.Accepted {
			t.Fatalf("Trace[%d] rejected on a well-behaved quadratic", i)
		}
		halvings += tr.Halvings
	}
	if halvings != st.Halvings {
		t.Fatalf("trace halvings sum %d != Stats.Halvings %d", halvings, st.Halvings)
	}
	// The final record's residual must match the converged residual.
	last := st.Trace[len(st.Trace)-1]
	if last.Residual != st.Residual {
		t.Fatalf("last trace residual %v != Stats.Residual %v", last.Residual, st.Residual)
	}

	// The span side: one "newton.solve" span carrying the trace payload.
	spans := rec.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "newton.solve" {
		t.Fatalf("span name %q", sp.Name)
	}
	if sp.Attrs["iterations"] != int64(st.NewtonIters) {
		t.Fatalf("span iterations attr %v, want %d", sp.Attrs["iterations"], st.NewtonIters)
	}
	if sp.Attrs["converged"] != int64(1) {
		t.Fatalf("span converged attr %v", sp.Attrs["converged"])
	}
	payload, ok := sp.Data.([]IterTrace)
	if !ok || len(payload) != st.NewtonIters {
		t.Fatalf("span payload %T len mismatch", sp.Data)
	}
}

// stiffExpSystem is the damping-stressor from solver_test.go: e^x − 1 = 0,
// whose undamped Newton step from a far-off start overflows.
func stiffExpSystem() FuncSystem {
	return FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		e := math.Exp(x[0])
		r := []float64{e - 1}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			tr.Append(0, 0, e)
			j = tr.Compress()
		}
		return r, j, nil
	}}
}

func TestSolveTraceCountsDampingHalvings(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	// Unclamped Newton from -12 overshoots to x ≈ e^12 where the residual
	// overflows; damping must halve ~14 times before the trial is accepted.
	x := []float64{-12}
	opt := NewOptions()
	opt.MaxIter = 200
	opt.MaxHalve = 30
	st, err := Solve(ctx, stiffExpSystem(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Halvings == 0 {
		t.Fatal("expected damping halvings on the stiff exponential")
	}
	var sum int
	for _, tr := range st.Trace {
		sum += tr.Halvings
	}
	if sum != st.Halvings {
		t.Fatalf("trace halvings sum %d != Stats.Halvings %d", sum, st.Halvings)
	}
	if len(st.Trace) != st.NewtonIters {
		t.Fatalf("len(Trace) = %d, want %d", len(st.Trace), st.NewtonIters)
	}
}

func TestContinuationAggregatesHalvings(t *testing.T) {
	// Continuation must fold the inner solves' Halvings/LinearIters/
	// GMRESFallbacks into ContinuationStats — they feed the QPSS totals and
	// the /metrics counters. The λ-independent stiff exponential makes the
	// λ=0 anchor solve (started far off, unclamped) pay damping halvings.
	ps := FuncParamSystem{N: 1, F: func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
		return stiffExpSystem().F(x, jac)
	}}
	opt := NewOptions()
	opt.MaxIter = 200
	opt.MaxHalve = 30
	x := []float64{-12}
	cs, err := Continue(context.Background(), ps, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total.Halvings == 0 {
		t.Fatal("continuation inner solves reported no halvings to aggregate")
	}
}
