// Package shooting computes the periodic steady state (PSS) of a circuit
// driven at a single fundamental by the Aprille–Trick shooting method: find
// x0 with Φ_T(x0) = x0, where Φ_T is the state-transition map over one period
// integrated with fixed-step backward Euler. The sensitivity (monodromy)
// matrix M = ∂Φ_T/∂x0 is accumulated step by step through the chain rule
//
//	∂x_n/∂x_{n−1} = (C_n/h + G_n)⁻¹ · C_{n−1}/h
//
// and Newton updates solve (M − I)·Δ = −(Φ(x0) − x0). A matrix-free variant
// approximates (M − I)·v by finite-difference re-integration and solves the
// update with GMRES — the configuration of Telichevesky et al. that the
// paper cites as the fastest conventional baseline.
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

// Options configures a PSS run.
type Options struct {
	// Period is the steady-state period T (required).
	Period float64
	// Steps is the number of fixed BE steps per period (default 200).
	Steps int
	// MaxIter caps shooting-Newton iterations (default 40).
	MaxIter int
	// Tol is the ∞-norm tolerance on Φ(x0) − x0 (default 1e-7).
	Tol float64
	// MatrixFree selects finite-difference/GMRES instead of the dense
	// monodromy accumulation.
	MatrixFree bool
	// X0 is the starting guess; nil → DC operating point.
	X0 []float64
	// Newton configures the inner per-timestep solves.
	Newton solver.Options
	// Damping scales the shooting update (default 1).
	Damping float64
}

// Result reports the periodic steady state.
type Result struct {
	// X0 is the state at t = 0 on the periodic orbit.
	X0 []float64
	// Orbit samples one full period starting from X0 (Steps+1 points).
	Orbit *transient.Result
	// Iterations is the number of shooting-Newton iterations.
	Iterations int
	// FinalError is ‖Φ(x0) − x0‖∞ at acceptance.
	FinalError float64
	// TotalTimeSteps counts all BE steps taken, the paper's cost metric.
	TotalTimeSteps int
	// Stats totals the Newton work of every BE step solve, across every
	// integration (orbit record and matrix-free re-integrations included).
	Stats solver.Stats
	// Monodromy is ∂Φ_T/∂x0 at the solution (dense mode only; nil in
	// matrix-free mode). Its eigenvalues are the Floquet multipliers.
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

	// Dense sensitivity workspace: the step factorisation of C/h + G
	// (refactored in the previous step's pivot order), C at the previous
	// point, and the (Cprev/h)·M product with its column scratch.
	sens     *la.SparseLU
	cPrev    la.CSR
	w        *la.Dense
	col, out []float64
}

func newIntegrator(ctx context.Context, ckt *circuit.Circuit, h float64, steps int, opt solver.Options) *integrator {
	return &integrator{ctx: ctx, n: ckt.Size(), h: h, steps: steps, opt: opt, step: transient.NewStepper(ckt)}
}

// propagate integrates one period from x0. When wantM is set it also
// accumulates the dense monodromy matrix; when record is set it stores the
// trajectory. It returns the number of BE steps taken, also on failure.
func (g *integrator) propagate(x0 []float64, wantM, record bool, t0 float64) ([]float64, *la.Dense, *transient.Result, int, error) {
	n := g.n
	x := append([]float64(nil), x0...)
	var m *la.Dense
	if wantM {
		m = la.Eye(n)
	}
	var orbit *transient.Result
	if record {
		orbit = &transient.Result{}
		orbit.T = append(orbit.T, t0)
		orbit.X = append(orbit.X, append([]float64(nil), x...))
	}
	// Take q (and C for the first sensitivity step) at the start.
	if c := g.step.Start(x, t0, wantM); wantM {
		copyCSR(&g.cPrev, c)
	}
	totalSteps := 0
	for k := 1; k <= g.steps; k++ {
		t := t0 + float64(k)*g.h
		if err := g.step.Step(g.ctx, x, transient.BE, t, g.h, g.opt); err != nil {
			return nil, nil, nil, totalSteps, fmt.Errorf("shooting: step %d (t=%.3e) failed: %w", k, t, err)
		}
		totalSteps++
		// The monodromy update takes C and G at the accepted point.
		if wantM {
			j, c := g.step.Linearize(x)
			if err := g.sensitivityStep(m, j, c); err != nil {
				return nil, nil, nil, totalSteps, fmt.Errorf("shooting: sensitivity factorisation failed at step %d: %w", k, err)
			}
		}
		g.step.Accept()
		if record {
			orbit.T = append(orbit.T, t)
			orbit.X = append(orbit.X, append([]float64(nil), x...))
		}
	}
	return x, m, orbit, totalSteps, nil
}

// sensitivityStep advances the monodromy M ← (C/h + G)⁻¹ · (Cprev/h) · M
// with a = C/h + G and C evaluated at the accepted point, then keeps a copy
// of C as the next step's Cprev.
//
//mpde:hotpath
func (g *integrator) sensitivityStep(m *la.Dense, a, c *la.CSR) error {
	n := g.n
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
	if opt.MaxIter <= 0 {
		opt.MaxIter = 40
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-7
	}
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 1
	}
	// Merge the inner-solve Newton defaults non-destructively: a caller who
	// sets Linear or PivotTol but leaves MaxIter zero keeps them (a zero
	// MaxIter also opts into damping, the analysis default).
	if opt.Newton.MaxIter == 0 {
		opt.Newton.Damping = true
	}
	opt.Newton.Fill()
	ckt.Finalize()
	n := ckt.Size()

	x0, err := transient.StartState(ctx, ckt, opt.X0, 0, 1, "shooting")
	if err != nil {
		return nil, err
	}

	g := newIntegrator(ctx, ckt, opt.Period/float64(opt.Steps), opt.Steps, opt.Newton)

	res := &Result{}
	defer func() { res.Stats = g.step.Stats }()
	for it := 0; it < opt.MaxIter; it++ {
		res.Iterations = it + 1
		xT, m, _, steps, err := g.propagate(x0, !opt.MatrixFree, false, 0)
		res.TotalTimeSteps += steps
		if err != nil {
			return res, err
		}
		// Periodicity residual r = Φ(x0) − x0.
		r := make([]float64, n)
		for i := range r {
			r[i] = xT[i] - x0[i]
		}
		res.FinalError = la.NormInf(r)
		if res.FinalError <= opt.Tol {
			// Record the converged orbit and keep the monodromy, whose
			// eigenvalues are the Floquet multipliers.
			res.Monodromy = m
			_, _, orbit, steps2, err := g.propagate(x0, false, true, 0)
			res.TotalTimeSteps += steps2
			if err != nil {
				return res, err
			}
			res.X0 = x0
			res.Orbit = orbit
			return res, nil
		}
		var dx []float64
		if opt.MatrixFree {
			var fdSteps int
			dx, fdSteps, err = matrixFreeUpdate(g, x0, xT, r)
			res.TotalTimeSteps += fdSteps
		} else {
			// Solve (M − I)·dx = −r with dense LU.
			a := m.Clone()
			for i := 0; i < n; i++ {
				a.Add(i, i, -1)
			}
			neg := make([]float64, n)
			for i := range neg {
				neg[i] = -r[i]
			}
			dx, err = la.SolveDense(a, neg)
		}
		if err != nil {
			return res, fmt.Errorf("shooting: update solve failed: %w", err)
		}
		la.Axpy(opt.Damping, dx, x0)
	}
	return res, fmt.Errorf("%w after %d iterations (‖Φ(x0)−x0‖ = %.3e)",
		ErrNoConvergence, res.Iterations, res.FinalError)
}

// matrixFreeUpdate solves (M − I)·dx = −r by GMRES with finite-difference
// monodromy application: M·v ≈ (Φ(x0+εv) − Φ(x0))/ε. It also returns the
// BE steps its re-integrations took. A failed re-integration fails the
// update: GMRES on the fabricated operator would otherwise return garbage
// without an error.
func matrixFreeUpdate(g *integrator, x0, phi, r []float64) ([]float64, int, error) {
	n := g.n
	op := &fdOperator{g: g, x0: x0, phi: phi}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = -r[i]
	}
	dx := make([]float64, n)
	_, err := la.GMRES(op, rhs, dx, la.GMRESOptions{Tol: 1e-8, Restart: min(n, 40), MaxIter: 4 * n})
	if op.err != nil {
		return nil, op.steps, fmt.Errorf("shooting: finite-difference re-integration failed: %w", op.err)
	}
	if err != nil {
		return nil, op.steps, err
	}
	return dx, op.steps, nil
}

type fdOperator struct {
	g   *integrator
	x0  []float64
	phi []float64
	// steps totals the BE steps of every re-integration; err holds the
	// first failed one, after which Apply stops integrating.
	steps int
	err   error
}

func (o *fdOperator) Size() int { return o.g.n }

func (o *fdOperator) Apply(v, out []float64) {
	n := o.g.n
	nv := la.Norm2(v)
	if nv == 0 || o.err != nil {
		la.Fill(out, 0)
		return
	}
	eps := 1e-7 * (1 + la.Norm2(o.x0)) / nv
	xp := make([]float64, n)
	for i := range xp {
		xp[i] = o.x0[i] + eps*v[i]
	}
	phiP, _, _, steps, err := o.g.propagate(xp, false, false, 0)
	o.steps += steps
	if err != nil {
		o.err = err
		la.Fill(out, 0)
		return
	}
	for i := range out {
		out[i] = (phiP[i]-o.phi[i])/eps - v[i] // (M − I)·v
	}
}
