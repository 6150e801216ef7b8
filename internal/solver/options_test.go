package solver

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/la"
)

// TestNewOptionsMatchesFill pins NewOptions to the documented defaults: the
// zero value filled. This catches drift like the GMRESIter default that
// NewOptions used to omit.
func TestNewOptionsMatchesFill(t *testing.T) {
	var filled Options
	filled.Fill()
	got := NewOptions()
	if !reflect.DeepEqual(got, filled) {
		t.Fatalf("NewOptions() = %+v\nwant Fill() defaults %+v", got, filled)
	}
	if got := NewOptions().GMRESIter; got != 400 {
		t.Fatalf("NewOptions().GMRESIter = %d, want the documented 400", got)
	}
}

// TestFillPreservesSetFields: Fill must merge defaults without clobbering
// anything the caller set — the contract the analyses rely on to honour
// Linear/PivotTol/Progress when MaxIter is left zero.
func TestFillPreservesSetFields(t *testing.T) {
	called := false
	o := Options{
		MaxIter:   7,
		PivotTol:  0.5,
		Linear:    MatrixFree,
		GMRESIter: 33,
		Progress:  func(int, float64) { called = true },
	}
	o.Fill()
	if o.MaxIter != 7 || o.PivotTol != 0.5 || o.Linear != MatrixFree || o.GMRESIter != 33 {
		t.Fatalf("Fill clobbered set fields: %+v", o)
	}
	if o.Progress == nil {
		t.Fatal("Fill dropped Progress")
	}
	o.Progress(1, 0)
	if !called {
		t.Fatal("Progress no longer wired to the caller's hook")
	}
	if o.AbsTol != 1e-9 || o.RelTol != 1e-6 || o.MaxHalve != 8 || o.GMRESTol != 1e-10 {
		t.Fatalf("Fill missed defaults: %+v", o)
	}
}

// TestSolveHonorsCanceledContext: a canceled context must abort the solve
// before the first iteration with an error that wraps both ErrInterrupted
// and the context error.
func TestSolveHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	sys := FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		evals++
		tr := la.NewTriplet(1, 1)
		tr.Append(0, 0, 1)
		return []float64{x[0] - 1}, tr.Compress(), nil
	}}
	_, err := Solve(ctx, sys, []float64{0}, NewOptions())
	if err == nil {
		t.Fatal("Solve converged under a canceled context")
	}
	if !Interrupted(err) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt error must wrap context.Canceled, got %v", err)
	}
	if evals != 0 {
		t.Fatalf("canceled solve still evaluated the system %d times", evals)
	}
}

// chordSystem is a mildly nonlinear 2×2 system that needs several Newton
// iterations from a poor guess, instrumented to count Jacobian evaluations.
type chordSystem struct {
	jacEvals *int
}

func (s chordSystem) Size() int { return 2 }

func (s chordSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	r := []float64{
		x[0]*x[0] + x[1] - 3,
		x[0] + x[1]*x[1]*x[1] - 9,
	}
	if !jac {
		return r, nil, nil
	}
	*s.jacEvals++
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, 2*x[0])
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 3*x[1]*x[1])
	return r, tr.Compress(), nil
}

// TestSolveStatsBookkeeping: the default path reports one factorisation per
// iteration split between full factorisations and symbolic-reuse
// refactorisations, plus a fill factor and timing totals.
func TestSolveStatsBookkeeping(t *testing.T) {
	evals := 0
	x := []float64{5, 5}
	st, err := Solve(context.Background(), chordSystem{&evals}, x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.JacobianEvals != evals {
		t.Fatalf("JacobianEvals = %d, instrumented %d", st.JacobianEvals, evals)
	}
	if st.Factorizations+st.Refactorizations != st.NewtonIters {
		t.Fatalf("decompositions %d+%d != iterations %d",
			st.Factorizations, st.Refactorizations, st.NewtonIters)
	}
	if st.FillFactor <= 0 {
		t.Fatalf("FillFactor not reported: %v", st.FillFactor)
	}
}
