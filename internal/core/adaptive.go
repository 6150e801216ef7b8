package core

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Fast-grid sizing. The paper fixes the grid at 40×30 (DefaultN1×DefaultN2)
// because that is what its mixer needed; any other deck is either
// under-resolved (silently wrong spectra) or over-resolved (wasted cubic
// solve time) by a fixed grid. AdaptiveQPSS turns the choice into a
// tolerance: start coarse, measure the spectral tail of the converged
// solution, and refine the aliasing axis — starting each finer solve from
// the envelope march at its own grid — until the tail falls below the
// tolerance or a cap is hit.

// The adaptive solver's starting grid, deliberately coarse — one
// refinement round costs less than solving a too-fine grid once — and
// GridRefinement's default tail floor, N1·N2 cap and refinement-round cap.
const (
	AdaptiveStartN1       = 16
	AdaptiveStartN2       = 12
	AdaptiveAbsTol        = 1e-9
	adaptiveMaxGridPoints = 16384
	adaptiveMaxRounds     = 6
)

// AccuracyOptions configures tolerance-driven automatic grid refinement.
// The zero value disables refinement (AdaptiveQPSS degenerates to QPSS).
type AccuracyOptions struct {
	// RelTol is the target spectral-tail ratio: refinement stops when no
	// unknown's outer-band amplitude exceeds RelTol times its largest AC
	// amplitude (see GridSpectralTail). 0 disables adaptive sizing.
	RelTol float64
	// AbsTol is the absolute amplitude floor below which tail content is
	// ignored (default AdaptiveAbsTol) — the solver's own convergence noise
	// must not trigger refinement.
	AbsTol float64
}

// AdaptiveStallFactor separates the two regimes a spectral tail can be in.
// Aliasing collapses by orders of magnitude when the offending axis is
// doubled; genuine signal content (e.g. the ~1/k harmonics of a
// bit-modulation envelope) shrinks by at most ~2×. An axis whose tail
// improves by less than this factor on doubling is signal-limited — further
// grid points would resolve more of the stimulus's own spectrum without
// changing the resolved mixes — and is not refined again.
const AdaptiveStallFactor = 4.0

// TailAxis tracks one grid axis of a spectral-tail refinement loop: call
// Grow with the axis's latest tail after every solve; it reports whether
// the axis should be refined again, permanently retiring the axis once a
// doubling fails to improve its tail by AdaptiveStallFactor. Used by
// GridRefinement and the transient sizing loop in internal/analysis.
type TailAxis struct {
	prev       float64
	grew, done bool
}

// Grow records the round and reports whether the axis still needs
// refinement under relTol.
func (a *TailAxis) Grow(tail, relTol float64) bool {
	if a.grew && tail*AdaptiveStallFactor > a.prev {
		a.done = true
	}
	grow := tail > relTol && !a.done
	a.prev, a.grew = tail, grow
	return grow
}

// GridRefinement is the spectral-tail refinement policy of the solvers on
// a bi-periodic (j·N1+i)·n+k grid, AdaptiveQPSS and adaptive HB. Solve on
// N1×N2, then pass the solution to Next.
type GridRefinement struct {
	N1, N2       int
	Tail1, Tail2 float64 // the tails of the solution last passed to Next
	Refinements  int

	acc      AccuracyOptions
	n        int
	ax1, ax2 TailAxis
}

// NewGridRefinement starts the policy on an n1×n2 grid of n unknowns per
// point.
func NewGridRefinement(acc AccuracyOptions, n, n1, n2 int) *GridRefinement {
	if acc.AbsTol <= 0 {
		acc.AbsTol = AdaptiveAbsTol
	}
	return &GridRefinement{N1: n1, N2: n2, acc: acc, n: n}
}

// Next measures the tails of x, the solution on the current grid, and
// reports whether to solve again: every axis that TailAxis.Grow keeps
// open doubles. It stops when both axes pass or stall, after
// adaptiveMaxRounds refinements, or where the finer grid would cross
// adaptiveMaxGridPoints.
func (g *GridRefinement) Next(x []float64) bool {
	g.Tail1, g.Tail2 = GridSpectralTail(x, g.n, g.N1, g.N2, g.acc.AbsTol)
	grow1 := g.ax1.Grow(g.Tail1, g.acc.RelTol)
	grow2 := g.ax2.Grow(g.Tail2, g.acc.RelTol)
	if !grow1 && !grow2 || g.Refinements >= adaptiveMaxRounds {
		return false
	}
	n1, n2 := g.N1, g.N2
	if grow1 {
		n1 *= 2
	}
	if grow2 {
		n2 *= 2
	}
	if n1*n2 > adaptiveMaxGridPoints {
		return false
	}
	g.N1, g.N2 = n1, n2
	g.Refinements++
	return true
}

// AdaptiveQPSS computes the quasi-periodic steady state with automatic
// fast-grid sizing: it solves on a coarse grid (opt.N1/N2 when set,
// AdaptiveStartN1×AdaptiveStartN2 otherwise) and refines it by the
// GridRefinement policy. Every round starts from the envelope march at its
// own grid (QPSS's start for a nil X0). Solver work (Newton iterations,
// factorisations, assembly time, …) is accumulated across rounds into the
// returned Solution's Stats, alongside Refinements and the final tails.
//
// With acc.RelTol = 0 this is exactly QPSS(ctx, ckt, opt).
func AdaptiveQPSS(ctx context.Context, ckt *circuit.Circuit, opt Options, acc AccuracyOptions) (*Solution, error) {
	if acc.RelTol <= 0 {
		return QPSS(ctx, ckt, opt)
	}
	if opt.N1 <= 0 {
		opt.N1 = AdaptiveStartN1
	}
	if opt.N2 <= 0 {
		opt.N2 = AdaptiveStartN2
	}
	if opt.N1*opt.N2 > adaptiveMaxGridPoints {
		return nil, fmt.Errorf("core: adaptive start grid %dx%d exceeds the %d-point cap",
			opt.N1, opt.N2, adaptiveMaxGridPoints)
	}
	ckt.Finalize()
	n := ckt.Size()
	// A caller's warm start is advisory: keep it only when it matches the
	// starting grid — the refinement rounds start from their own marches,
	// and a stale shape must not strand the solve.
	if len(opt.X0) != opt.N1*opt.N2*n {
		opt.X0 = nil
	}

	var total Stats
	add := func(s Stats) {
		total.Add(s.Stats)
		total.ContinuationSolves += s.ContinuationSolves
		total.UsedContinuation = total.UsedContinuation || s.UsedContinuation
		total.PatternBuilds += s.PatternBuilds
		total.PatternReuse += s.PatternReuse
	}

	ref := NewGridRefinement(acc, n, opt.N1, opt.N2)
	var sol *Solution
	for {
		// The matrix-free mode pays off on the refined grids where LU fill
		// dominates. The deliberately coarse starting grid stays direct: on
		// the paper mixer at 16×12 both take one grid iteration, and
		// matrix-free won 7 of 24 alternating timed pairs there, at a
		// median 1.01–1.06× direct's time (one global LU that small is
		// cheaper than the line builds and the Krylov work).
		ropt := opt
		if ropt.Newton.Linear == solver.MatrixFree && ref.Refinements == 0 {
			ropt.Newton.Linear = solver.DirectSparse
		}
		rctx, rspan := obs.Start(ctx, "qpss.adaptive.round")
		rspan.SetInt("round", int64(ref.Refinements))
		rspan.SetInt("n1", int64(ropt.N1))
		rspan.SetInt("n2", int64(ropt.N2))
		s, err := QPSS(rctx, ckt, ropt)
		if err != nil {
			rspan.End()
			return nil, err
		}
		add(s.Stats)
		sol = s
		more := ref.Next(sol.X)
		rspan.SetFloat("tail1", ref.Tail1)
		rspan.SetFloat("tail2", ref.Tail2)
		rspan.End()
		if !more {
			break
		}
		opt.N1, opt.N2, opt.X0 = ref.N1, ref.N2, nil
	}
	// Grid-shape numbers describe the final solve; work counters the sum of
	// every round.
	total.Tail1, total.Tail2 = ref.Tail1, ref.Tail2
	total.Refinements = ref.Refinements
	total.GridPoints = sol.Stats.GridPoints
	total.Unknowns = sol.Stats.Unknowns
	total.JacobianNNZ = sol.Stats.JacobianNNZ
	total.FillFactor = sol.Stats.FillFactor
	sol.Stats = total
	return sol, nil
}
