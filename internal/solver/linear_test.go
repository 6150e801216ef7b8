package solver

import (
	"context"
	"errors"
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

// circleMFS presents coupledCircle's Jacobian as an operator and records
// each Newton step's relative linear residual ‖J·dx + r‖₂/‖r‖₂. GMRES
// applies the operator to the x it returns last, so the last vector applied
// under a linearisation is that step's dx.
type circleMFS struct {
	FuncSystem
	j      *la.CSR
	r, dx  []float64
	linRel []float64
}

func (s *circleMFS) Linearize(x []float64) ([]float64, la.Operator, error) {
	s.finishStep()
	r, j, err := s.F(x, true)
	s.j, s.r = j, r
	return r, s, err
}
func (s *circleMFS) BuildPreconditioner() (la.Preconditioner, error) { return nil, nil }
func (s *circleMFS) Apply(x, y []float64) {
	s.j.MulVec(x, y)
	s.dx = append(s.dx[:0], x...)
}

// finishStep records the step solved at the last linearisation, if any.
func (s *circleMFS) finishStep() {
	if s.j == nil {
		return
	}
	res := make([]float64, len(s.r))
	s.j.MulVec(s.dx, res)
	for i := range res {
		res[i] += s.r[i]
	}
	s.linRel = append(s.linRel, la.Norm2(res)/la.Norm2(s.r))
	s.j = nil
}

// TestNewtonMatrixFreeSolvesEveryStepToTol: the matrix-free path solves
// every Newton step to GMRESTol, so it takes exactly as many Newton
// iterations as the direct path from the same start.
func TestNewtonMatrixFreeSolvesEveryStepToTol(t *testing.T) {
	for _, x0 := range [][]float64{{2, 1}, {3, 0.5}, {-1, -3}} {
		xd := append([]float64(nil), x0...)
		direct, err := Solve(context.Background(), coupledCircle(), xd, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		sys := &circleMFS{FuncSystem: coupledCircle()}
		xm := append([]float64(nil), x0...)
		opt := NewOptions()
		opt.Linear = MatrixFree
		mf, err := Solve(context.Background(), sys, xm, opt)
		if err != nil {
			t.Fatal(err)
		}
		sys.finishStep()
		if mf.NewtonIters != direct.NewtonIters {
			t.Errorf("from %v: %d Newton iterations matrix-free, %d direct", x0, mf.NewtonIters, direct.NewtonIters)
		}
		if len(sys.linRel) != mf.NewtonIters || mf.GMRESFallbacks != 0 {
			t.Fatalf("from %v: %d GMRES solves and %d fallbacks in %d iterations",
				x0, len(sys.linRel), mf.GMRESFallbacks, mf.NewtonIters)
		}
		for k, rel := range sys.linRel {
			if rel > opt.GMRESTol*(1+1e-6) {
				t.Errorf("from %v: step %d solved to %.3g, want ≤ %g", x0, k+1, rel, opt.GMRESTol)
			}
		}
		if math.Abs(xm[0]-xd[0]) > 1e-12 || math.Abs(xm[1]-xd[1]) > 1e-12 {
			t.Errorf("from %v: matrix-free %v, direct %v", x0, xm, xd)
		}
	}
}

// failedBuildMFS is permMFS with a preconditioner build that always fails.
type failedBuildMFS struct{ permMFS }

func (s *failedBuildMFS) BuildPreconditioner() (la.Preconditioner, error) {
	return nil, errors.New("build failed")
}

// TestNewtonFailedPreconditionerBuildRescues: a failed preconditioner build
// sends its iteration straight to the direct rescue, with no GMRES run and
// one counted fallback; a nil preconditioner with a nil error (permMFS)
// still runs GMRES.
func TestNewtonFailedPreconditionerBuildRescues(t *testing.T) {
	opt := NewOptions()
	opt.Linear = MatrixFree
	x := []float64{0, 0, 0}
	st, err := Solve(context.Background(), &failedBuildMFS{permMFS{r: make([]float64, 3)}}, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.LinearIters != 0 || st.OperatorApplies != 0 || st.PrecondBuilds != 0 || st.GMRESFallbacks != st.NewtonIters {
		t.Fatalf("failed builds: %d GMRES iterations, %d applies, %d builds, %d fallbacks in %d Newton iterations",
			st.LinearIters, st.OperatorApplies, st.PrecondBuilds, st.GMRESFallbacks, st.NewtonIters)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-1) > 1e-12 || math.Abs(x[2]-2) > 1e-12 {
		t.Fatalf("solution %v", x)
	}
	st, err = Solve(context.Background(), &permMFS{r: make([]float64, 3)}, []float64{0, 0, 0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.LinearIters == 0 || st.GMRESFallbacks != 0 {
		t.Fatalf("nil preconditioner: %d GMRES iterations, %d fallbacks", st.LinearIters, st.GMRESFallbacks)
	}
}

func TestNewtonMatrixFreeNeedsInterface(t *testing.T) {
	opt := NewOptions()
	opt.Linear = MatrixFree
	if _, err := Solve(context.Background(), coupledCircle(), []float64{1, 1}, opt); err == nil {
		t.Fatal("MatrixFree accepted a system without Linearize")
	}
}
