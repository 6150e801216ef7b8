// Package shooting computes the periodic steady state (PSS) of a circuit
// driven at a single fundamental by the Aprille–Trick shooting method: find
// x0 with Φ_T(x0) = x0, where Φ_T is the state-transition map over one period
// integrated with fixed-step backward Euler. The sensitivity (monodromy)
// matrix M = ∂Φ_T/∂x0 is accumulated step by step through the chain rule
//
//	∂x_n/∂x_{n−1} = (C_n/h + G_n)⁻¹ · C_{n−1}/h
//
// and Newton updates solve (M − I)·Δ = −(Φ(x0) − x0). Each iteration
// integrates one period, and the period that passes the tolerance is the
// orbit: a solve of k iterations takes k·Steps BE steps.
//
// This package is the paper's principal CPU-time comparison target: shooting
// "across one period of the difference frequency … with 10 or more time-steps
// per LO period" costs O(disparity) integrations, which is what the MPDE
// method eliminates.
package shooting

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/solver"
	"repro/internal/transient"
)

// maxIter caps shooting-Newton iterations; the full Newton update is taken
// undamped.
const maxIter = 40

// Options configures a PSS run.
type Options struct {
	// Period is the steady-state period T (required).
	Period float64
	// Steps is the number of fixed BE steps per period (default 200).
	Steps int
	// Tol is the ∞-norm tolerance on Φ(x0) − x0 (default 1e-7).
	Tol float64
	// X0 is the starting guess; nil → DC operating point.
	X0 []float64
	// Newton configures the inner per-timestep solves.
	Newton solver.Options
}

// Result reports the periodic steady state.
type Result struct {
	// X0 is the state at t = 0 on the periodic orbit.
	X0 []float64
	// Orbit samples one full period starting from X0 (Steps+1 points): the
	// period of the converged iteration.
	Orbit *transient.Result
	// Iterations is the number of shooting-Newton iterations.
	Iterations int
	// FinalError is ‖Φ(x0) − x0‖∞ at acceptance.
	FinalError float64
	// TotalTimeSteps counts all BE steps taken, the paper's cost metric:
	// Iterations·Steps on a converged solve.
	TotalTimeSteps int
	// Stats totals the Newton work of every BE step solve, across every
	// iteration's period.
	Stats solver.Stats
	// Monodromy is ∂Φ_T/∂x0 at the solution. Its eigenvalues are the
	// Floquet multipliers.
	Monodromy *la.Dense
}

// ErrNoConvergence is returned when shooting-Newton stalls.
var ErrNoConvergence = errors.New("shooting: Newton on the periodicity condition did not converge")

type integrator struct {
	ctx   context.Context
	n     int
	h     float64
	steps int
	opt   solver.Options
	// step is the march's BE step engine, shared by every period; its
	// Stats total the step solves' Newton work over every integration.
	step *transient.Stepper

	// orbit records the period propagate last integrated: the Steps+1 step
	// times and states, the state rows views into one slab sized once.
	// m is that period's monodromy.
	orbit *transient.Result
	m     *la.Dense

	// Dense sensitivity workspace: the step factorisation of C/h + G
	// (refactored in the previous step's pivot order), C at the previous
	// point, and the (Cprev/h)·M product with its column scratch.
	sens     *la.SparseLU
	cPrev    la.CSR
	w        *la.Dense
	col, out []float64
}

func newIntegrator(ctx context.Context, ckt *circuit.Circuit, h float64, steps int, opt solver.Options) *integrator {
	n := ckt.Size()
	orbit := &transient.Result{T: make([]float64, steps+1), X: make([][]float64, steps+1)}
	slab := make([]float64, (steps+1)*n)
	for k := range orbit.X {
		orbit.T[k] = float64(k) * h
		orbit.X[k] = slab[k*n : (k+1)*n : (k+1)*n]
	}
	return &integrator{ctx: ctx, n: n, h: h, steps: steps, opt: opt, step: transient.NewStepper(ckt),
		orbit: orbit, m: la.NewDense(n, n)}
}

// propagate integrates one period from x0 into the orbit record and
// accumulates its monodromy into m. It returns the number of BE steps
// taken, also on failure.
func (g *integrator) propagate(x0 []float64) (int, error) {
	x := g.orbit.X
	copy(x[0], x0)
	la.Fill(g.m.Data, 0)
	for i := 0; i < g.n; i++ {
		g.m.Set(i, i, 1)
	}
	// Take q and C, the first sensitivity step's Cprev, at the start.
	copyCSR(&g.cPrev, g.step.Start(x[0], 0, true))
	for k := 1; k <= g.steps; k++ {
		t := g.orbit.T[k]
		copy(x[k], x[k-1])
		if err := g.step.Step(g.ctx, x[k], transient.BE, t, g.h, g.opt); err != nil {
			return k - 1, fmt.Errorf("shooting: step %d (t=%.3e) failed: %w", k, t, err)
		}
		// The monodromy update takes C and G at the accepted point.
		j, c := g.step.Linearize(x[k])
		if err := g.sensitivityStep(j, c); err != nil {
			return k, fmt.Errorf("shooting: sensitivity factorisation failed at step %d: %w", k, err)
		}
		g.step.Accept()
	}
	return g.steps, nil
}

// sensitivityStep advances the monodromy M ← (C/h + G)⁻¹ · (Cprev/h) · M
// with a = C/h + G and C evaluated at the accepted point, then keeps a copy
// of C as the next step's Cprev.
//
//mpde:hotpath
func (g *integrator) sensitivityStep(a, c *la.CSR) error {
	n, m := g.n, g.m
	if g.sens == nil || !g.sens.SamePattern(a) || g.sens.Refactor(a) != nil {
		f, err := la.SparseLUFactor(a, 0.001)
		if err != nil { //mpde:coldpath a singular step matrix aborts the period
			return err
		}
		g.sens = f
	}
	if g.w == nil { //mpde:alloc-ok per-run scratch, sized once
		g.w = la.NewDense(n, n)
		g.col = make([]float64, n)
		g.out = make([]float64, n)
	}
	w := g.w
	// w = (Cprev/h)·M  (sparse × dense, row by row).
	cp := &g.cPrev
	for i := 0; i < n; i++ {
		wrow := w.Row(i)
		la.Fill(wrow, 0)
		for p := cp.RowPtr[i]; p < cp.RowPtr[i+1]; p++ {
			cij := cp.Val[p] / g.h
			mrow := m.Row(cp.ColIdx[p])
			for j := 0; j < n; j++ {
				wrow[j] += cij * mrow[j]
			}
		}
	}
	// Solve column-wise into the new M.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			g.col[i] = w.At(i, j)
		}
		g.sens.Solve(g.col, g.out)
		for i := 0; i < n; i++ {
			m.Set(i, j, g.out[i])
		}
	}
	copyCSR(cp, c)
	return nil
}

// copyCSR copies src's values into dst, reusing dst's storage. The pattern
// is shared, not copied: patterns are never rewritten in place.
func copyCSR(dst, src *la.CSR) {
	dst.Rows, dst.Cols = src.Rows, src.Cols
	dst.RowPtr, dst.ColIdx = src.RowPtr, src.ColIdx
	dst.Val = append(dst.Val[:0], src.Val...)
}

// PSS computes the periodic steady state. Cancelling ctx aborts the
// per-timestep Newton solves cooperatively; an already-canceled context
// returns ctx.Err() before any integration work.
func PSS(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Period <= 0 {
		return nil, errors.New("shooting: Period must be positive")
	}
	if opt.Steps <= 0 {
		opt.Steps = 200
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-7
	}
	// Merge the inner-solve Newton defaults non-destructively: a caller who
	// sets Linear or PivotTol but leaves MaxIter zero keeps them.
	opt.Newton.Fill()
	ckt.Finalize()
	n := ckt.Size()

	x0, err := transient.StartState(ctx, ckt, opt.X0, 0, 1, "shooting")
	if err != nil {
		return nil, err
	}

	g := newIntegrator(ctx, ckt, opt.Period/float64(opt.Steps), opt.Steps, opt.Newton)
	xT := g.orbit.X[opt.Steps]
	r := make([]float64, n)

	res := &Result{}
	defer func() { res.Stats = g.step.Stats }()
	for it := 0; it < maxIter; it++ {
		res.Iterations = it + 1
		steps, err := g.propagate(x0)
		res.TotalTimeSteps += steps
		if err != nil {
			return res, err
		}
		// Periodicity residual r = Φ(x0) − x0.
		for i := range r {
			r[i] = xT[i] - x0[i]
		}
		res.FinalError = la.NormInf(r)
		if res.FinalError <= opt.Tol {
			// The period just integrated is the orbit; its monodromy's
			// eigenvalues are the Floquet multipliers.
			res.X0, res.Orbit, res.Monodromy = x0, g.orbit, g.m
			return res, nil
		}
		// Solve (M − I)·dx = −r with dense LU; the next period resets M.
		for i := 0; i < n; i++ {
			g.m.Add(i, i, -1)
			r[i] = -r[i]
		}
		dx, err := la.SolveDense(g.m, r)
		if err != nil {
			return res, fmt.Errorf("shooting: update solve failed: %w", err)
		}
		la.Axpy(1, dx, x0)
	}
	return res, fmt.Errorf("%w after %d iterations (‖Φ(x0)−x0‖ = %.3e)",
		ErrNoConvergence, res.Iterations, res.FinalError)
}
