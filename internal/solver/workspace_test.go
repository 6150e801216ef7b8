package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/la"
)

// circleLine is x0² + x1² = a, x0 = b·x1: a nonlinear system whose Jacobian
// [[2x0, 2x1], [1, −b]] keeps its pattern for every (a, b) — the shape of a
// time march, where each step solves a same-pattern system.
func circleLine(a, b float64) FuncSystem {
	return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[0]*x[0] + x[1]*x[1] - a, x[0] - b*x[1]}
		if !jac {
			return r, nil, nil
		}
		tr := la.NewTriplet(2, 2)
		tr.Append(0, 0, 2*x[0])
		tr.Append(0, 1, 2*x[1])
		tr.Append(1, 0, 1)
		tr.Append(1, 1, -b)
		return r, tr.Compress(), nil
	}}
}

// TestWorkspaceCarriesFactorisation: the second same-pattern solve through
// a Workspace starts from a numeric refactorisation of the first solve's
// analysis — no symbolic factorisation at all — and lands where a fresh
// Solve does.
func TestWorkspaceCarriesFactorisation(t *testing.T) {
	ctx := context.Background()
	var ws Workspace
	x := []float64{1, 1}
	st1, err := ws.Solve(ctx, circleLine(4, 1), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Factorizations != 1 {
		t.Fatalf("first solve: Factorizations = %d, want 1", st1.Factorizations)
	}
	x2 := []float64{1, 1}
	st2, err := ws.Solve(ctx, circleLine(9, 2), x2, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Factorizations != 0 || st2.Refactorizations < 1 {
		t.Fatalf("second solve: Factorizations/Refactorizations = %d/%d, want 0/≥1",
			st2.Factorizations, st2.Refactorizations)
	}
	fresh := []float64{1, 1}
	if _, err := Solve(ctx, circleLine(9, 2), fresh, NewOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if d := math.Abs(x2[i] - fresh[i]); d > 1e-12*math.Abs(fresh[i]) {
			t.Fatalf("x[%d] = %v through the workspace, %v fresh", i, x2[i], fresh[i])
		}
	}
}

// affine2 is the linear system J·x = b with the fixed-pattern Jacobian
// fullTwoByTwo(a00).
func affine2(a00, b0, b1 float64) FuncSystem {
	j := fullTwoByTwo(a00)
	return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{a00*x[0] + x[1] - b0, x[0] + 2*x[1] - b1}
		if !jac {
			return r, nil, nil
		}
		return r, j, nil
	}}
}

// TestWorkspaceUnstableCarriedOrderRefactors: when the next solve's values
// make the carried pivot order unstable (a vanishing (0,0) pivot), the
// workspace falls back to a fresh pivoted factorisation, converges, and
// carries the new order on.
func TestWorkspaceUnstableCarriedOrderRefactors(t *testing.T) {
	ctx := context.Background()
	var ws Workspace
	if _, err := ws.Solve(ctx, affine2(1, 3, 4), []float64{0, 0}, NewOptions()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0}
	st, err := ws.Solve(ctx, affine2(1e-12, 1, 3), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Factorizations != 1 || st.Refactorizations != 0 {
		t.Fatalf("after an unstable carried order: %+v, want a converged solve with one fresh factorisation", st)
	}
	// [[1e-12, 1], [1, 2]]·x = [1, 3] → x ≈ (1, 1).
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("solution %v, want ≈ (1, 1)", x)
	}
	st, err = ws.Solve(ctx, affine2(1e-12, 2, 5), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Factorizations != 0 || st.Refactorizations < 1 {
		t.Fatalf("the fresh order was not carried: Factorizations/Refactorizations = %d/%d",
			st.Factorizations, st.Refactorizations)
	}
}

// shiftSystem is F(x) = x − b with J = I and system-owned storage, so its
// evaluations allocate nothing.
type shiftSystem struct {
	b, r []float64
	j    *la.CSR
}

func (s *shiftSystem) Size() int { return len(s.b) }

func (s *shiftSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	for i := range s.r {
		s.r[i] = x[i] - s.b[i]
	}
	if !jac {
		return s.r, nil, nil
	}
	return s.r, s.j, nil
}

// TestWorkspaceSolveAllocsFlat: a warm Workspace's solve allocates a fixed
// handful of objects, however many Newton iterations it takes (a step
// clamp turns the one-step solve into one of ten).
func TestWorkspaceSolveAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, 1)
	tr.Append(1, 1, 1)
	sys := &shiftSystem{b: []float64{1, 1}, r: make([]float64, 2), j: tr.Compress()}
	var ws Workspace
	x := make([]float64, 2)
	solveFrom0 := func(opt Options) Stats {
		x[0], x[1] = 0, 0
		st, err := ws.Solve(context.Background(), sys, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	clamped := NewOptions()
	clamped.MaxStep = 0.1
	one, ten := solveFrom0(NewOptions()), solveFrom0(clamped)
	if one.NewtonIters > 2 || ten.NewtonIters < 10 {
		t.Fatalf("iterations %d and %d, want ≤ 2 and ≥ 10", one.NewtonIters, ten.NewtonIters)
	}
	aOne := testing.AllocsPerRun(50, func() { solveFrom0(NewOptions()) })
	aTen := testing.AllocsPerRun(50, func() { solveFrom0(clamped) })
	if aTen != aOne || aOne > 2 {
		t.Fatalf("allocs/solve = %v at %d iterations, %v at %d; want equal and ≤ 2",
			aOne, one.NewtonIters, aTen, ten.NewtonIters)
	}
}

// TestWorkspaceSolveNoAllocs: under a cancellable context — the sweep's
// and the server's — a warm Workspace's solve allocates nothing, at one
// Newton iteration or at ten.
func TestWorkspaceSolveNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, 1)
	tr.Append(1, 1, 1)
	sys := &shiftSystem{b: []float64{1, 1}, r: make([]float64, 2), j: tr.Compress()}
	var ws Workspace
	x := make([]float64, 2)
	solveFrom0 := func(opt Options) Stats {
		x[0], x[1] = 0, 0
		st, err := ws.Solve(ctx, sys, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	clamped := NewOptions()
	clamped.MaxStep = 0.1
	one, ten := solveFrom0(NewOptions()), solveFrom0(clamped)
	if one.NewtonIters > 2 || ten.NewtonIters < 10 {
		t.Fatalf("iterations %d and %d, want ≤ 2 and ≥ 10", one.NewtonIters, ten.NewtonIters)
	}
	for _, c := range []struct {
		opt   Options
		iters int
	}{{NewOptions(), one.NewtonIters}, {clamped, ten.NewtonIters}} {
		if a := testing.AllocsPerRun(50, func() { solveFrom0(c.opt) }); a != 0 {
			t.Fatalf("allocs/solve = %v at %d iterations, want 0", a, c.iters)
		}
	}
}

// TestConvergedSolveLastEvalAtSolution pins the contract time marches read
// the accepted point from: a converged solve's last System.Eval was a
// residual-only evaluation at the x it returns.
func TestConvergedSolveLastEvalAtSolution(t *testing.T) {
	var lastX []float64
	lastJac := true
	sys := circleLine(9, 2)
	spy := FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		lastX, lastJac = append(lastX[:0], x...), jac
		return sys.F(x, jac)
	}}
	x := []float64{5, -3}
	var ws Workspace
	if _, err := ws.Solve(context.Background(), spy, x, NewOptions()); err != nil {
		t.Fatal(err)
	}
	if lastJac || math.Float64bits(lastX[0]) != math.Float64bits(x[0]) || math.Float64bits(lastX[1]) != math.Float64bits(x[1]) {
		t.Fatalf("last evaluation at %v (jac %v), solution %v", lastX, lastJac, x)
	}
}
