package solver

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/la"
)

// ParamSystem is a nonlinear system embedded in a homotopy parameter
// λ ∈ [0, 1]: H(x, 0) is easy (e.g. sources off, extra gmin on), H(x, 1) is
// the target problem.
type ParamSystem interface {
	Size() int
	EvalAt(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error)
}

// FuncParamSystem adapts a closure to ParamSystem.
type FuncParamSystem struct {
	N int
	F func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error)
}

// Size returns the system dimension.
func (s FuncParamSystem) Size() int { return s.N }

// EvalAt forwards to the closure.
func (s FuncParamSystem) EvalAt(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
	return s.F(lambda, x, jac)
}

// The adaptive λ stepping starts at Δλ = contStartStep, multiplies it by
// contGrowth after each accepted solve (capped at 0.5), halves it after a
// failed one and gives up once it falls below contMinStep or after
// contMaxSolves Newton solves.
const (
	contStartStep = 0.25
	contMinStep   = 1e-6
	contGrowth    = 2
	contMaxSolves = 200
)

// ContinuationStats reports the path taken. Total sums the work of every
// inner Newton solve (see Stats.Add) and carries the last one's
// final-iterate fields: after a successful path, the λ = 1 solve's.
type ContinuationStats struct {
	Solves      int
	Failures    int
	FinalLambda float64
	Total       Stats
}

// ErrContinuation is returned when the path cannot reach λ = 1.
var ErrContinuation = errors.New("solver: continuation failed to reach lambda=1")

// Continue tracks the solution of H(x, λ) = 0 from λ = 0 to λ = 1 with
// adaptive steps and secant prediction. x holds the initial guess for λ = 0
// on entry and the λ = 1 solution on exit. opt configures every inner
// Newton solve.
func Continue(ctx context.Context, sys ParamSystem, x []float64, opt Options) (ContinuationStats, error) {
	var cs ContinuationStats
	n := sys.Size()

	solveAt := func(lambda float64, guess []float64) (Stats, error) {
		cs.Solves++
		sub := FuncSystem{N: n, F: func(xx []float64, jac bool) ([]float64, *la.CSR, error) {
			return sys.EvalAt(lambda, xx, jac)
		}}
		st, err := Solve(ctx, sub, guess, opt)
		cs.Total.AddFinal(st)
		return st, err
	}

	// Anchor at λ = 0.
	if _, err := solveAt(0, x); err != nil {
		return cs, fmt.Errorf("solver: continuation failed at lambda=0: %w", err)
	}
	lambda := 0.0
	step := contStartStep
	xPrev := append([]float64(nil), x...) // solution at previous λ
	lambdaPrev := 0.0

	for lambda < 1 && cs.Solves < contMaxSolves {
		next := lambda + step
		if next > 1 {
			next = 1
		}
		// Secant prediction from the last two accepted points.
		guess := append([]float64(nil), x...)
		if lambda > lambdaPrev {
			scale := (next - lambda) / (lambda - lambdaPrev)
			for i := range guess {
				guess[i] += scale * (x[i] - xPrev[i])
			}
		}
		if _, err := solveAt(next, guess); err != nil {
			if Interrupted(err) {
				cs.FinalLambda = lambda
				return cs, err
			}
			cs.Failures++
			step /= 2
			if step < contMinStep {
				cs.FinalLambda = lambda
				return cs, fmt.Errorf("%w (stalled at lambda=%.6f: %v)", ErrContinuation, lambda, err)
			}
			continue
		}
		copy(xPrev, x)
		lambdaPrev = lambda
		copy(x, guess)
		lambda = next
		step *= contGrowth
		if step > 0.5 {
			step = 0.5
		}
	}
	cs.FinalLambda = lambda
	if lambda < 1 {
		return cs, fmt.Errorf("%w (solve budget exhausted at lambda=%.4f)", ErrContinuation, lambda)
	}
	return cs, nil
}

// SolveWithFallback attempts a plain Newton solve and, on failure, retries
// through source-stepping continuation using the provided ParamSystem
// embedding. This mirrors the paper's experience: "In cases where
// Newton-Raphson did not converge, using continuation reliably obtained
// solutions". The returned Stats total the plain try and the continuation
// path, and report the final iterate of the last solve: after a rescue,
// the λ = 1 solve that produced x.
func SolveWithFallback(ctx context.Context, sys ParamSystem, x []float64, newtonOpt Options) (Stats, ContinuationStats, error) {
	direct := FuncSystem{N: sys.Size(), F: func(xx []float64, jac bool) ([]float64, *la.CSR, error) {
		return sys.EvalAt(1, xx, jac)
	}}
	xTry := append([]float64(nil), x...)
	st, err := Solve(ctx, direct, xTry, newtonOpt)
	if err == nil {
		copy(x, xTry)
		return st, ContinuationStats{}, nil
	}
	cs, cerr := Continue(ctx, sys, x, newtonOpt)
	st.AddFinal(cs.Total)
	if cerr != nil {
		return st, cs, fmt.Errorf("solver: direct Newton failed (%v) and continuation failed: %w", err, cerr)
	}
	return st, cs, nil
}
