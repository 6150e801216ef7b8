package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/la"
)

func TestParseLinearSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LinearSolverKind
	}{
		{"", DirectSparse}, {"direct", DirectSparse}, {"matfree", MatrixFree},
	} {
		got, err := ParseLinearSolver(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseLinearSolver(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, in := range []string{"cholesky", "gmres"} {
		if _, err := ParseLinearSolver(in); err == nil {
			t.Fatalf("ParseLinearSolver(%q) accepted", in)
		}
	}
	if MatrixFree != 2 {
		t.Fatalf("MatrixFree = %d, want 2 (the value on the wire)", MatrixFree)
	}
}

// TestSolveRejectsUnknownLinearKind: a kind outside the enum — including
// the retired value 1 — must fail before any evaluation instead of
// silently running direct LU.
func TestSolveRejectsUnknownLinearKind(t *testing.T) {
	for _, kind := range []LinearSolverKind{1, 7} {
		evals := 0
		sys := FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
			evals++
			return coupledCircle().F(x, jac)
		}}
		opt := NewOptions()
		opt.Linear = kind
		_, err := Solve(context.Background(), sys, []float64{2, 1}, opt)
		want := fmt.Sprintf("solver: unknown linear solver kind %d", kind)
		if err == nil || err.Error() != want {
			t.Fatalf("kind %d: err = %v, want %q", kind, err, want)
		}
		if evals != 0 {
			t.Fatalf("kind %d: %d evaluations before the rejection", kind, evals)
		}
	}
}

func fullTwoByTwo(a00 float64) *la.CSR {
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, a00)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 2)
	return tr.Compress()
}

// TestDirectFactorRefactorBailout drives the frozen-pivot-order refactor
// through its growth bailout: the same-pattern path must fall back to a
// fresh pivoted factorisation (counted as a Factorization, not a
// Refactorization) and keep working afterwards.
func TestDirectFactorRefactorBailout(t *testing.T) {
	var d directFactor
	var st Stats
	opt := NewOptions()
	if err := d.factor(fullTwoByTwo(1), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Factorizations != 1 {
		t.Fatalf("Factorizations = %d after first factor", st.Factorizations)
	}
	// Same pattern, but the tiny (0,0) pivot makes the frozen order unstable:
	// Refactor bails and a fresh threshold-pivoted factorisation takes over.
	if err := d.factor(fullTwoByTwo(1e-12), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Factorizations != 2 || st.Refactorizations != 0 {
		t.Fatalf("after bailout: Factorizations/Refactorizations = %d/%d, want 2/0",
			st.Factorizations, st.Refactorizations)
	}
	// Well-scaled same-pattern values reuse the fresh symbolic analysis.
	if err := d.factor(fullTwoByTwo(3), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Refactorizations != 1 {
		t.Fatalf("Refactorizations = %d, want 1", st.Refactorizations)
	}
	x := make([]float64, 2)
	d.f.Solve([]float64{4, 5}, x)
	// [[3,1],[1,2]]·x = [4,5] → x = (0.6, 2.2).
	if math.Abs(x[0]-0.6) > 1e-12 || math.Abs(x[1]-2.2) > 1e-12 {
		t.Fatalf("solve after refactor: %v", x)
	}
}

func coupledCircle() FuncSystem {
	return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[0]*x[0] + x[1]*x[1] - 4, x[0] - x[1]}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(2, 2)
			tr.Append(0, 0, 2*x[0])
			tr.Append(0, 1, 2*x[1])
			tr.Append(1, 0, 1)
			tr.Append(1, 1, -1)
			j = tr.Compress()
		}
		return r, j, nil
	}}
}

// permMFS is a MatrixFreeSystem whose Jacobian is a cyclic permutation:
// unpreconditioned GMRES needs three Krylov steps for it. Eval assembles the
// Jacobian so a failed GMRES solve can be rescued by factoring it.
type permMFS struct{ r []float64 }

func (s *permMFS) Size() int { return 3 }
func (s *permMFS) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	s.r[0], s.r[1], s.r[2] = x[1]-1, x[2]-2, x[0]-3
	if !jac {
		return s.r, nil, nil
	}
	return s.r, permJacobian(), nil
}
func (s *permMFS) Linearize(x []float64) ([]float64, la.Operator, error) {
	r, _, err := s.Eval(x, false)
	return r, la.AsOperator(permJacobian()), err
}
func (s *permMFS) BuildPreconditioner() (la.Preconditioner, error) { return nil, nil }

func permJacobian() *la.CSR {
	tr := la.NewTriplet(3, 3)
	tr.Append(0, 1, 1)
	tr.Append(1, 2, 1)
	tr.Append(2, 0, 1)
	return tr.Compress()
}

// TestNewtonGMRESFallbackCounted starves matrix-free GMRES so the linear
// solve fails over to the direct factorisation: the operator is a cyclic
// permutation, GMRES runs unpreconditioned, and the iteration budget is
// below the Krylov degree. Newton must still converge via the rescue, and
// the events must be counted.
func TestNewtonGMRESFallbackCounted(t *testing.T) {
	perm := &permMFS{r: make([]float64, 3)}
	x := []float64{0, 0, 0}
	opt := NewOptions()
	opt.Linear = MatrixFree
	opt.GMRESIter = 2 // the cyclic operator needs 3 Krylov steps
	st, err := Solve(context.Background(), perm, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.GMRESFallbacks == 0 {
		t.Fatal("starved GMRES produced no counted fallbacks")
	}
	if st.Factorizations+st.Refactorizations == 0 {
		t.Fatal("fallback solved without a factorisation")
	}
	if math.Abs(x[0]-3) > 1e-8 || math.Abs(x[1]-1) > 1e-8 || math.Abs(x[2]-2) > 1e-8 {
		t.Fatalf("solution %v", x)
	}
}

// TestShareLUBatchReuse runs two same-pattern solves against one LUShare:
// the first publishes its symbolic analysis, the second must start from a
// numeric-only refactorisation (BatchReuse) and never pay a symbolic phase.
func TestShareLUBatchReuse(t *testing.T) {
	affine := func(b0, b1 float64) FuncSystem {
		return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
			r := []float64{3*x[0] + x[1] - b0, x[0] + 2*x[1] - b1}
			var j *la.CSR
			if jac {
				j = fullTwoByTwo(3)
			}
			return r, j, nil
		}}
	}
	share := &la.LUShare{}
	opt := NewOptions()
	opt.ShareLU = share
	x := []float64{0, 0}
	st1, err := Solve(context.Background(), affine(4, 5), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Factorizations == 0 || st1.BatchReuse != 0 {
		t.Fatalf("leader stats: %+v", st1)
	}
	y := []float64{0, 0}
	st2, err := Solve(context.Background(), affine(-1, 7), y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BatchReuse == 0 {
		t.Fatal("follower did not reuse the published symbolic analysis")
	}
	if st2.Factorizations != 0 {
		t.Fatalf("follower paid %d symbolic factorisations", st2.Factorizations)
	}
	if math.Abs(3*y[0]+y[1]+1) > 1e-9 || math.Abs(y[0]+2*y[1]-7) > 1e-9 {
		t.Fatalf("follower solution %v", y)
	}
}

// linearMFS is a minimal MatrixFreeSystem: an affine residual with its exact
// Jacobian presented only as an operator.
type linearMFS struct {
	a *la.CSR
	b []float64
	r []float64
}

func (s *linearMFS) Size() int { return len(s.b) }
func (s *linearMFS) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	s.a.MulVec(x, s.r)
	for i := range s.r {
		s.r[i] -= s.b[i]
	}
	return s.r, nil, nil
}
func (s *linearMFS) Linearize(x []float64) ([]float64, la.Operator, error) {
	r, _, err := s.Eval(x, false)
	return r, la.AsOperator(s.a), err
}
func (s *linearMFS) BuildPreconditioner() (la.Preconditioner, error) {
	return la.IdentityPreconditioner{}, nil
}

func TestNewtonMatrixFree(t *testing.T) {
	sys := &linearMFS{a: fullTwoByTwo(3), b: []float64{4, 5}, r: make([]float64, 2)}
	x := []float64{0, 0}
	opt := NewOptions()
	opt.Linear = MatrixFree
	st, err := Solve(context.Background(), sys, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.OperatorApplies == 0 || st.PrecondBuilds == 0 || st.LinearIters == 0 {
		t.Fatalf("matrix-free stats not counted: %+v", st)
	}
	if st.Factorizations != 0 || st.GMRESFallbacks != 0 {
		t.Fatalf("matrix-free path assembled a factorisation: %+v", st)
	}
	if math.Abs(x[0]-0.6) > 1e-8 || math.Abs(x[1]-2.2) > 1e-8 {
		t.Fatalf("solution %v", x)
	}
}

func TestNewtonMatrixFreeNeedsInterface(t *testing.T) {
	opt := NewOptions()
	opt.Linear = MatrixFree
	if _, err := Solve(context.Background(), coupledCircle(), []float64{1, 1}, opt); err == nil {
		t.Fatal("MatrixFree accepted a system without Linearize")
	}
}
