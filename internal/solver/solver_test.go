package solver

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/la"
)

// scalarSystem: x² − a = 0.
func sqrtSystem(a float64) FuncSystem {
	return FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[0]*x[0] - a}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			tr.Append(0, 0, 2*x[0])
			j = tr.Compress()
		}
		return r, j, nil
	}}
}

func TestNewtonScalarSqrt(t *testing.T) {
	x := []float64{1}
	st, err := Solve(context.Background(), sqrtSystem(2), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(x[0]-math.Sqrt2) > 1e-10 {
		t.Fatalf("x = %v, want √2", x[0])
	}
}

// TestNewtonFailsOnNaNResidual: r = 1 at x = 3 and NaN everywhere else,
// J = 1. Every damped trial lands on a NaN residual, so the solve must fail
// with ErrNewton naming the iteration — not report convergence (an all-NaN
// residual once had ∞-norm 0).
func TestNewtonFailsOnNaNResidual(t *testing.T) {
	sys := FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{math.NaN()}
		if x[0] == 3 {
			r[0] = 1
		}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			tr.Append(0, 0, 1)
			j = tr.Compress()
		}
		return r, j, nil
	}}
	x := []float64{3}
	st, err := Solve(context.Background(), sys, x, NewOptions())
	if !errors.Is(err, ErrNewton) {
		t.Fatalf("err = %v, want ErrNewton (x = %v, converged %v)", err, x, st.Converged)
	}
	if st.Converged || !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("converged %v, err %q: want a failure at iteration 1", st.Converged, err)
	}
	if x[0] != 3 {
		t.Fatalf("x = %v: a non-finite trial must not be accepted", x)
	}
}

// TestNewtonFailsOnNonFiniteStep: r = 1e300 and J = 1e-10·I are finite, but
// the step −J⁻¹r overflows. The solve must fail at once with ErrNewton
// naming the iteration, without halving or evaluating a trial point.
func TestNewtonFailsOnNonFiniteStep(t *testing.T) {
	trials := 0
	sys := FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		if !jac {
			trials++
		}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(2, 2)
			tr.Append(0, 0, 1e-10)
			tr.Append(1, 1, 1e-10)
			j = tr.Compress()
		}
		return []float64{1e300, 1e300}, j, nil
	}}
	x := []float64{0, 0}
	st, err := Solve(context.Background(), sys, x, NewOptions())
	if !errors.Is(err, ErrNewton) || !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("err = %v, want ErrNewton at iteration 1", err)
	}
	if st.Converged || st.Halvings != 0 || trials != 0 {
		t.Fatalf("converged %v, %d halvings, %d trial evaluations: want a failure before damping",
			st.Converged, st.Halvings, trials)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v: a non-finite step must not be taken", x)
	}
}

func TestNewtonQuadraticConvergenceIterationCount(t *testing.T) {
	x := []float64{1.5}
	st, err := Solve(context.Background(), sqrtSystem(2), x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.NewtonIters > 8 {
		t.Fatalf("Newton took %d iterations on a scalar quadratic", st.NewtonIters)
	}
}

func TestNewtonCoupledSystem(t *testing.T) {
	// x² + y² = 4, x − y = 0 → x = y = √2.
	sys := FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
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
	x := []float64{1, 2}
	if _, err := Solve(context.Background(), sys, x, NewOptions()); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-math.Sqrt2) > 1e-9 || math.Abs(x[1]-math.Sqrt2) > 1e-9 {
		t.Fatalf("solution %v", x)
	}
}

func TestNewtonDampingRescuesOvershoot(t *testing.T) {
	// tanh-like stiff exponential: without damping Newton overflows from a
	// far-off start; with damping it converges.
	sys := FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		e := math.Exp(x[0])
		r := []float64{e - 1} // root at 0
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			tr.Append(0, 0, e)
			j = tr.Compress()
		}
		return r, j, nil
	}}
	x := []float64{-30} // Newton step from here is ≈ e^30 — must be damped
	opt := NewOptions()
	opt.MaxIter = 200
	opt.MaxStep = 5
	st, err := Solve(context.Background(), sys, x, opt)
	if err != nil {
		t.Fatalf("damped Newton failed: %v (%+v)", err, st)
	}
	if math.Abs(x[0]) > 1e-7 {
		t.Fatalf("x = %v, want 0", x[0])
	}
}

func TestNewtonReportsNonConvergence(t *testing.T) {
	// No real root: x² + 1 = 0.
	sys := FuncSystem{N: 1, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			d := 2 * x[0]
			if d == 0 {
				d = 1e-3
			}
			tr.Append(0, 0, d)
			j = tr.Compress()
		}
		return []float64{x[0]*x[0] + 1}, j, nil
	}}
	x := []float64{1}
	opt := NewOptions()
	opt.MaxIter = 15
	if _, err := Solve(context.Background(), sys, x, opt); err == nil {
		t.Fatal("expected non-convergence error")
	}
}

func TestNewtonBadGuessSizeRejected(t *testing.T) {
	if _, err := Solve(context.Background(), sqrtSystem(2), []float64{1, 2}, NewOptions()); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

// hardHomotopy is a system Newton cannot solve cold from x=0 but continuation
// can: H(x,λ) = x³ − 3x + 3λ·tanh-free... we use f(x) = atan(10(x−3)) + λ−1
// style: root drifts with λ.
func TestContinuationSolvesHardProblem(t *testing.T) {
	// H(x, λ) = tanh(5x) − λ·0.999 ... target root finite; plain Newton from 0
	// on the λ=1 problem oscillates/flatlines because tanh saturates.
	target := func(lambda float64) float64 { return lambda * 0.999 }
	ps := FuncParamSystem{N: 1, F: func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
		th := math.Tanh(5 * x[0])
		r := []float64{th - target(lambda)}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			d := 5 * (1 - th*th)
			if math.Abs(d) < 1e-12 {
				d = 1e-12
			}
			tr.Append(0, 0, d)
			j = tr.Compress()
		}
		return r, j, nil
	}}
	x := []float64{0}
	opt := NewOptions()
	opt.MaxIter = 30
	cs, err := Continue(context.Background(), ps, x, opt)
	if err != nil {
		t.Fatalf("continuation failed: %v (%+v)", err, cs)
	}
	want := math.Atanh(0.999) / 5
	if math.Abs(x[0]-want) > 1e-6 {
		t.Fatalf("x = %v, want %v", x[0], want)
	}
	if cs.FinalLambda != 1 {
		t.Fatalf("FinalLambda = %v", cs.FinalLambda)
	}
}

func TestContinuationStallsReported(t *testing.T) {
	// A homotopy with no solution beyond λ = 0.5: H = x² + (λ−0.5).
	ps := FuncParamSystem{N: 1, F: func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[0]*x[0] + (lambda - 0.5)}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			d := 2 * x[0]
			if math.Abs(d) < 1e-6 {
				d = 1e-6
			}
			tr.Append(0, 0, d)
			j = tr.Compress()
		}
		return r, j, nil
	}}
	x := []float64{1}
	opt := NewOptions()
	opt.MaxIter = 12
	_, err := Continue(context.Background(), ps, x, opt)
	if err == nil {
		t.Fatal("expected continuation failure")
	}
}

func TestSolveWithFallbackPrefersDirect(t *testing.T) {
	calls := 0
	ps := FuncParamSystem{N: 1, F: func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
		calls++
		r := []float64{x[0] - lambda*2}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(1, 1)
			tr.Append(0, 0, 1)
			j = tr.Compress()
		}
		return r, j, nil
	}}
	x := []float64{0}
	st, cs, err := SolveWithFallback(context.Background(), ps, x, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || cs.Solves != 0 {
		t.Fatalf("direct path should have solved: %+v %+v", st, cs)
	}
	if math.Abs(x[0]-2) > 1e-10 {
		t.Fatalf("x = %v", x[0])
	}
}
