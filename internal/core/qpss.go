package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/transient"
)

// DiffOrder selects the finite-difference order along a grid axis.
type DiffOrder int

const (
	// Order1 is the backward-Euler difference (q_i − q_{i−1})/h.
	Order1 DiffOrder = 1
	// Order2 is the second-order backward (BDF2) difference
	// (3q_i − 4q_{i−1} + q_{i−2})/(2h); both are unconditionally stable on
	// the bi-periodic grid.
	Order2 DiffOrder = 2
)

// The paper's default grid: 40 fast-axis by 30 difference-axis points.
const (
	DefaultN1 = 40
	DefaultN2 = 30
)

// Options configures the quasi-periodic steady-state (QPSS) solve.
type Options struct {
	// N1, N2 are the grid sizes along the fast (t1 ∈ [0,T1)) and
	// difference (t2 ∈ [0,Td)) axes. Defaults DefaultN1 and DefaultN2,
	// the paper's grid.
	N1, N2 int
	// Shear defines the difference-frequency time-scale map (required).
	Shear Shear
	// DiffT1/DiffT2 select difference orders (defaults Order1).
	DiffT1, DiffT2 DiffOrder
	// Newton configures the grid-level Newton solve. Set fields survive:
	// defaults are filled non-destructively (solver.Options.Fill), so a
	// caller who only sets Linear or PivotTol keeps them while MaxIter
	// defaults to 60.
	Newton solver.Options
	// NoContinuation disables the source-stepping fallback that runs when
	// plain Newton fails — the paper's "10–20 minute" robust path, on by
	// default.
	NoContinuation bool
	// AssemblyWorkers bounds the worker pool that evaluates the N1·N2 grid
	// points and stamps the Jacobian block rows in parallel. Results are
	// byte-identical for every worker count (each grid point and each
	// Jacobian row is assembled by exactly one worker in a fixed
	// accumulation order). 0 uses runtime.GOMAXPROCS(0); 1 is sequential.
	AssemblyWorkers int
	// X0, when non-nil, warm-starts the grid unknowns (length N1·N2·n).
	// nil: one slow period of the envelope march, DC on failure.
	X0 []float64
}

// Stats reports the work done.
type Stats struct {
	// Stats totals the Newton work (iterations, LU and GMRES counters,
	// FillFactor, assembly and factor time) of every solve behind the
	// result: the main solve, the continuation path, and under
	// AdaptiveQPSS every refinement round.
	solver.Stats
	UsedContinuation   bool
	ContinuationSolves int
	GridPoints         int
	Unknowns           int
	JacobianNNZ        int
	// PatternBuilds counts the Jacobian assemblies that took a new
	// block-stencil plan, compiled or loaded from the process-wide table
	// (1 for a solve whose device stamps keep their pattern), so it never
	// depends on what earlier solves left in the table; PatternReuse
	// counts Jacobian assemblies that replayed values into an unchanged
	// pattern.
	PatternBuilds int
	PatternReuse  int
	// Refinements counts the grid-refinement rounds AdaptiveQPSS ran beyond
	// the initial coarse solve (0 for a plain fixed-grid QPSS call).
	Refinements int
	// Tail1, Tail2 are the final solution's spectral-tail ratios along the
	// fast and slow axes (only set by AdaptiveQPSS; see GridSpectralTail).
	Tail1, Tail2 float64
}

// Solution is a converged multi-time steady state on the bi-periodic grid.
type Solution struct {
	Ckt    *circuit.Circuit
	Shear  Shear
	N1, N2 int
	// X holds the grid unknowns; index layout (j·N1 + i)·n + k with i the
	// fast (t1) index, j the slow (t2) index and k the circuit unknown.
	X     []float64
	Stats Stats

	n int
}

// ErrNonTorusSource is returned when the circuit contains sources whose
// waveforms cannot be evaluated on the torus.
var ErrNonTorusSource = errors.New("core: circuit has sources without a torus (bi-periodic) form")

// index returns the offset of unknown k at grid point (i, j).
func (s *Solution) index(i, j, k int) int { return (j*s.N1+i)*s.n + k }

// At returns the state vector at grid point (i, j) (a view, do not modify).
func (s *Solution) At(i, j int) []float64 {
	base := (j*s.N1 + i) * s.n
	return s.X[base : base+s.n]
}

// QPSS computes the quasi-periodic steady state by Newton on the
// finite-difference MPDE over the sheared bi-periodic grid. Cancelling ctx
// aborts the grid Newton solve (and the continuation fallback)
// cooperatively; an already-canceled context returns ctx.Err() before the
// Jacobian pattern build or any grid assembly is paid for.
func QPSS(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opt.Shear.Validate(); err != nil {
		return nil, err
	}
	if bad := ckt.NonTorusSources(); len(bad) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrNonTorusSource, bad)
	}
	if opt.N1 <= 0 {
		opt.N1 = DefaultN1
	}
	if opt.N2 <= 0 {
		opt.N2 = DefaultN2
	}
	if opt.DiffT1 == 0 {
		opt.DiffT1 = Order1
	}
	if opt.DiffT2 == 0 {
		opt.DiffT2 = Order1
	}
	if opt.DiffT1 == Order2 && opt.N1 < 3 || opt.DiffT2 == Order2 && opt.N2 < 3 {
		return nil, errors.New("core: Order2 differences need at least 3 points per axis")
	}
	// Merge Newton defaults non-destructively: fields the caller set —
	// Linear, PivotTol, … — survive even with MaxIter left zero.
	if opt.Newton.MaxIter == 0 {
		opt.Newton.MaxIter = 60
	}
	opt.Newton.Fill()
	ckt.Finalize()
	n := ckt.Size()
	N1, N2 := opt.N1, opt.N2
	nTot := N1 * N2 * n

	ctx, span := obs.Start(ctx, "qpss.solve")
	if span != nil {
		span.SetInt("n1", int64(N1))
		span.SetInt("n2", int64(N2))
		span.SetInt("unknowns", int64(nTot))
		defer span.End()
	}

	sol := &Solution{Ckt: ckt, Shear: opt.Shear, N1: N1, N2: N2, n: n}
	sol.Stats.GridPoints = N1 * N2
	sol.Stats.Unknowns = nTot

	// Initial guess: X0, else one slow period of the envelope march, else
	// (the march failed) the DC operating point replicated across the grid.
	x, err := transient.StartState(ctx, ckt, opt.X0, 0, N1*N2, "core")
	if err != nil {
		return nil, err
	}
	start := "x0"
	if opt.X0 == nil {
		start = "march"
		ms, err := marchStart(ctx, ckt, opt, x)
		ms.FillFactor = 0 // the reported fill is the grid Jacobian's
		sol.Stats.Add(ms)
		if solver.Interrupted(err) {
			return nil, err
		}
		if err != nil {
			start = "dc"
		}
	}
	if span != nil {
		span.SetStr("start", start)
	}

	asm := newAssembler(ckt, opt)

	var sys solver.System = solver.FuncSystem{N: nTot, F: func(xx []float64, jac bool) ([]float64, *la.CSR, error) {
		return asm.assemble(xx, 1, jac)
	}}
	var mfs *mfSystem
	if opt.Newton.Linear == solver.MatrixFree {
		mfs = newMFSystem(asm)
		sys = mfs
	}
	st, err := solver.Solve(ctx, sys, x, opt.Newton)
	sol.Stats.Add(st)
	if mfs != nil {
		reused, _ := mfs.batchStats()
		sol.Stats.BatchReuse += reused
	}
	if err != nil {
		if solver.Interrupted(err) {
			return nil, err
		}
		if opt.NoContinuation {
			return nil, err
		}
		// Source-stepping continuation on the signal sources: bias stays on,
		// the AC drive ramps from 0 to full. The path always solves with an
		// assembled Jacobian — near-singular homotopy steps are exactly where
		// an inexact matrix-free solve is least trustworthy.
		cnOpt := opt.Newton
		if cnOpt.Linear == solver.MatrixFree {
			cnOpt.Linear = solver.DirectSparse
		}
		ps := solver.FuncParamSystem{N: nTot, F: func(lambda float64, xx []float64, jac bool) ([]float64, *la.CSR, error) {
			return asm.assembleSignalLambda(xx, lambda, jac)
		}}
		cs, cerr := solver.Continue(ctx, ps, x, cnOpt)
		sol.Stats.UsedContinuation = true
		sol.Stats.ContinuationSolves = cs.Solves
		sol.Stats.AddFinal(cs.Total)
		if cerr != nil {
			return nil, fmt.Errorf("core: QPSS Newton failed (%v) and continuation failed: %w", err, cerr)
		}
	}
	sol.X = x
	sol.Stats.JacobianNNZ = asm.lastNNZ
	sol.Stats.PatternBuilds = asm.builds
	sol.Stats.PatternReuse = asm.reuse
	return sol, nil
}

// marchStart overwrites x, the DC operating point replicated across the
// grid, with one slow period of the envelope march at StepT2 = Td/N2. The
// march discretises t2 by backward Euler, as the grid does, and lacks only
// the periodic wrap, so once the slow transients have decayed within Td its
// lines are close to the quasi-periodic orbit. The line at t2 = j·Td/N2
// becomes grid line j, the line at Td wraps to line 0, and the initial line
// at t2 = 0 is dropped. The line solves run direct whatever the grid solve
// uses. No step is halved, so every line stays on the grid: a failed step
// ends the march, and x is restored to the DC point. It returns the
// march's Newton work and its error.
func marchStart(ctx context.Context, ckt *circuit.Circuit, opt Options, x []float64) (solver.Stats, error) {
	n, N1, N2 := ckt.Size(), opt.N1, opt.N2
	nLine := N1 * n
	dc := append([]float64(nil), x[:n]...)
	eo := EnvelopeOptions{T2Stop: opt.Shear.Td(), StepT2: opt.Shear.Td() / float64(N2), Newton: opt.Newton}
	eo.Newton.Linear = solver.DirectSparse
	m := newEnvelopeMarch(ckt, opt.Shear, N1)
	// The march works in grid line 0, where its line at Td lands.
	err := m.run(ctx, x[:nLine], &eo, eo.StepT2, func(k int, _ float64, line []float64) {
		if 0 < k && k < N2 {
			copy(x[k*nLine:(k+1)*nLine], line)
		}
	})
	if err != nil {
		for p := 0; p < N1*N2; p++ {
			copy(x[p*n:(p+1)*n], dc)
		}
	}
	return m.st, err
}

// assembler evaluates the MPDE residual and Jacobian over the grid. The
// Jacobian is a block stencil over the per-point G and C blocks, replayed
// every iteration. Its plan depends only on the difference stencil and the
// device topology, so it is compiled once per process for each grid shape
// and loaded by every later solve of that shape; the N1·N2 independent
// grid-point evaluations and the block-row replay both run on a worker pool
// with per-worker circuit.Eval workspaces. Each grid point and each
// Jacobian block row is produced by exactly one worker in a fixed
// accumulation order, so the result is byte-identical for every worker
// count.
type assembler struct {
	ckt     *circuit.Circuit
	opt     Options
	n       int
	N1, N2  int
	h1, h2  float64
	workers int

	evs []*circuit.Eval // one evaluation workspace per worker
	// tab records every grid point's source values once per evaluation
	// context; each point's recording is written by the worker that
	// evaluates the point. A residual-only assembler (nil tab) evaluates
	// each point through its worker Eval's own one-point table instead.
	tab *device.SourceTable

	// Per-point storage reused across assemblies.
	q   []float64 // N1·N2·n charges
	fb  []float64 // N1·N2·n conductive + source residuals
	src []*la.CSR // every point's G, then every point's C: gs and cs
	gs  []*la.CSR // per-point G = ∂f/∂x, storage reused in place
	cs  []*la.CSR // per-point C = ∂q/∂x, storage reused in place
	r   []float64 // residual buffer (the solver copies what it keeps)

	// Difference stencils (fixed per solve).
	d1c, d2c     []float64
	d1off, d2off []int

	// The global Jacobian: each block row p sums G(p), then the d1 and the
	// d2 stencil terms coef·C(pp), weighted by coef = [1, d1c…, d2c…]. The
	// stencil is built on the first Jacobian assembly; builds counts the
	// assemblies that took a new plan (compiled or loaded) and reuse its
	// replays into an unchanged pattern.
	jac           *la.BlockStencil
	coef          []float64
	jm            la.CSR
	builds, reuse int

	lastNNZ int
}

func newAssembler(ckt *circuit.Circuit, opt Options) *assembler {
	a := newResidualAssembler(ckt, opt)
	np := a.N1 * a.N2
	a.tab = device.NewSourceTable(np)
	a.src = make([]*la.CSR, 2*np)
	for p := range a.src {
		a.src[p] = &la.CSR{}
	}
	a.gs, a.cs = a.src[:np], a.src[np:]
	return a
}

// newResidualAssembler allocates only what a residual-only assembly reads:
// the worker Evals, the charge, conductive and residual vectors and the
// difference stencils — no per-point Jacobian blocks and no source table.
func newResidualAssembler(ckt *circuit.Circuit, opt Options) *assembler {
	n := ckt.Size()
	N1, N2 := opt.N1, opt.N2
	workers := opt.AssemblyWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > N1*N2 {
		workers = N1 * N2
	}
	a := &assembler{
		ckt: ckt, opt: opt, n: n, N1: N1, N2: N2,
		h1:      opt.Shear.T1() / float64(N1),
		h2:      opt.Shear.Td() / float64(N2),
		workers: workers,
		q:       make([]float64, N1*N2*n),
		fb:      make([]float64, N1*N2*n),
		r:       make([]float64, N1*N2*n),
	}
	a.evs = make([]*circuit.Eval, workers)
	for w := range a.evs {
		a.evs[w] = ckt.NewEval()
	}
	a.d1c, a.d1off = stencil(opt.DiffT1, a.h1)
	a.d2c, a.d2off = stencil(opt.DiffT2, a.h2)
	a.coef = append(append([]float64{1}, a.d1c...), a.d2c...)
	return a
}

// gridStencil lists the global Jacobian's terms: block row p takes G(p),
// then coef·C(pp) for the d1 and then the d2 stencil neighbours pp.
func (a *assembler) gridStencil() *la.BlockStencil {
	N1, N2, np := a.N1, a.N2, a.N1*a.N2
	terms := make([]la.BlockTerm, 0, np*len(a.coef))
	for p := 0; p < np; p++ {
		i, j := p%N1, p/N1
		terms = append(terms, la.Term(p, p, p, 0))
		for s := range a.d1c {
			pp := j*N1 + mod(i+a.d1off[s], N1)
			terms = append(terms, la.Term(p, pp, np+pp, 1+s))
		}
		for s := range a.d2c {
			pp := mod(j+a.d2off[s], N2)*N1 + i
			terms = append(terms, la.Term(p, pp, np+pp, 1+len(a.d1c)+s))
		}
	}
	return la.NewBlockStencil(a.n, np, np, a.src, [][]la.BlockTerm{terms})
}

// parallel fans fn(worker, lo, hi) over [0, nItems) in contiguous chunks,
// one goroutine per worker. Sequential when a single worker is configured.
func (a *assembler) parallel(nItems int, fn func(w, lo, hi int)) {
	if a.workers <= 1 {
		fn(0, 0, nItems)
		return
	}
	chunk := (nItems + a.workers - 1) / a.workers
	var wg sync.WaitGroup
	for w := 0; w < a.workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > nItems {
			hi = nItems
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// assemble computes the residual (and Jacobian) of the discretised MPDE at
// grid state xx with all sources scaled by lambda.
func (a *assembler) assemble(xx []float64, lambda float64, jac bool) ([]float64, *la.CSR, error) {
	return a.assembleCtx(xx, device.EvalCtx{Torus: true, Lambda: lambda}, jac)
}

// assembleSignalLambda scales only non-DC sources by lambda.
func (a *assembler) assembleSignalLambda(xx []float64, lambda float64, jac bool) ([]float64, *la.CSR, error) {
	return a.assembleCtx(xx, device.EvalCtx{Torus: true, Lambda: lambda, SignalOnlyLambda: true}, jac)
}

// assembleCtx evaluates the grid and, when jac is set, replays the
// Jacobian's block rows across the worker pool.
//
//mpde:deterministic-parallel
func (a *assembler) assembleCtx(xx []float64, baseCtx device.EvalCtx, jac bool) ([]float64, *la.CSR, error) {
	a.evalGrid(xx, baseCtx, jac)
	if !jac {
		return a.r, nil, nil
	}
	if a.jac == nil {
		a.jac = a.gridStencil()
	}
	if a.jac.Prepare() {
		a.jac.Bind(&a.jm)
		a.builds++
	} else {
		a.reuse++
	}
	a.parallel(a.N1*a.N2, func(_, lo, hi int) {
		a.jac.Replay(a.jm.Val, a.coef, 0, lo, hi)
	})
	a.lastNNZ = a.jm.NNZ()
	return a.r, &a.jm, nil
}

// evalGrid runs the two assembly passes — per-point device evaluation and
// stencil residual rows — leaving the residual in a.r and, when jac is set,
// the per-point local Jacobians in a.cs/a.gs without touching the global
// pattern. The matrix-free path uses it directly: residual-only for damping
// trials, jac=true for the exact Jacobian-vector product and the line
// preconditioner's local blocks. A single worker runs both passes inline,
// so a warm residual-only assembly allocates nothing.
//
//mpde:deterministic-parallel
func (a *assembler) evalGrid(xx []float64, baseCtx device.EvalCtx, jac bool) {
	np := a.N1 * a.N2
	if a.workers <= 1 {
		a.evalPoints(a.evs[0], 0, np, xx, baseCtx, jac)
		a.residualRows(0, np)
		return
	}
	// Pass 1: evaluate the circuit at every grid point — N1·N2 independent
	// device evaluations fanned across the worker pool, each writing only
	// its own point's slices and source recording.
	a.parallel(np, func(w, lo, hi int) {
		a.evalPoints(a.evs[w], lo, hi, xx, baseCtx, jac)
	})
	// Pass 2: difference-stencil residual rows, parallel over grid points.
	// Each point's rows are written by exactly one worker.
	a.parallel(np, func(_, lo, hi int) {
		a.residualRows(lo, hi)
	})
}

// evalPoints evaluates the circuit at grid points [lo, hi) through ev,
// storing each point's charges, conductive-plus-source residual and, when
// jac is set, its C and G blocks.
func (a *assembler) evalPoints(ev *circuit.Eval, lo, hi int, xx []float64, baseCtx device.EvalCtx, jac bool) {
	n, N1 := a.n, a.N1
	sh := a.opt.Shear
	for p := lo; p < hi; p++ {
		i, j := p%N1, p/N1
		ctx := baseCtx
		ctx.Th1, ctx.Th2 = sh.Phases(float64(i)*a.h1, float64(j)*a.h2)
		var res circuit.Result
		if a.tab == nil {
			res = ev.EvalAt(xx[p*n:(p+1)*n], ctx, false)
		} else {
			res = ev.EvalPoint(a.tab, p, xx[p*n:(p+1)*n], ctx, jac, a.cs[p], a.gs[p])
		}
		copy(a.q[p*n:(p+1)*n], res.Q)
		for k := 0; k < n; k++ {
			a.fb[p*n+k] = res.F[k] + res.B[k]
		}
	}
}

// residualRows writes the residual rows of grid points [lo, hi): the
// point's conductive-plus-source residual plus the difference stencils
// over the charges.
func (a *assembler) residualRows(lo, hi int) {
	n, N1, N2 := a.n, a.N1, a.N2
	for p := lo; p < hi; p++ {
		i, j := p%N1, p/N1
		rp := a.r[p*n : (p+1)*n]
		copy(rp, a.fb[p*n:(p+1)*n])
		for s, coef := range a.d1c {
			pp := j*N1 + mod(i+a.d1off[s], N1)
			for k := 0; k < n; k++ {
				rp[k] += coef * a.q[pp*n+k]
			}
		}
		for s, coef := range a.d2c {
			pp := mod(j+a.d2off[s], N2)*N1 + i
			for k := 0; k < n; k++ {
				rp[k] += coef * a.q[pp*n+k]
			}
		}
	}
}

// stencil returns difference coefficients and index offsets for the given
// order and spacing.
func stencil(o DiffOrder, h float64) ([]float64, []int) {
	switch o {
	case Order2:
		return []float64{3 / (2 * h), -4 / (2 * h), 1 / (2 * h)}, []int{0, -1, -2}
	default:
		return []float64{1 / h, -1 / h}, []int{0, -1}
	}
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
