package core

import (
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// mfSystem presents the MPDE grid system to Newton in matrix-free form: the
// Jacobian is never assembled globally or factorised. Its action J(x₀)·v is
// computed exactly, element by element, from the per-point local Jacobians
// (G = ∂f/∂x, C = ∂q/∂x) and the difference stencils — the same data one
// grid evaluation leaves behind — fanned over the assembler's
// byte-deterministic parallel chunking. The preconditioner is a forward
// sweep along t2 over slow-axis lines, the blocks the MPDE's fast/slow
// time-scale separation makes dominant. Eval still forwards to the full
// assembler, so damping trials and the GMRES→direct rescue path work
// unchanged.
//
// An earlier variant computed J·v by directional residual differencing
// (classic JFNK). It was abandoned: the finite-difference noise floor
// (~1e-7 relative on the mixer's stiff exponentials) sits above the GMRES
// tolerance, and once Newton's residual shrinks toward convergence the
// noise swamps the right-hand side entirely — every late solve stalled at
// the iteration cap and fell back to direct LU, defeating the mode. The
// local-block product is exact, deterministic, and cheaper per apply (no
// device re-evaluation).
type mfSystem struct {
	asm  *assembler
	nTot int

	// Linearisation-point residual (private copy: the assembler reuses a.r).
	r0 []float64
	// cv holds every grid point's C(p)·v_p during one Apply.
	cv []float64

	prec *linePrecond
}

var _ solver.MatrixFreeSystem = (*mfSystem)(nil)

// batchStats reports the preconditioner's shared-analysis reuse: slots
// refactored against the frozen pivot order vs fresh-factor fallbacks.
func (s *mfSystem) batchStats() (reused, fallbacks int) {
	if s.prec == nil {
		return 0, 0
	}
	return s.prec.refactored, s.prec.fallbacks
}

func newMFSystem(asm *assembler) *mfSystem {
	nTot := asm.N1 * asm.N2 * asm.n
	return &mfSystem{
		asm: asm, nTot: nTot,
		r0: make([]float64, nTot),
		cv: make([]float64, nTot),
	}
}

func (s *mfSystem) Size() int { return s.nTot }

// Eval forwards to the assembled path (residual-only for damping trials;
// jac=true only when the solver rescues a failed GMRES solve directly).
func (s *mfSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	return s.asm.assemble(x, 1, jac)
}

// Linearize fixes the linearisation point: one grid evaluation computes the
// residual and the per-point local G/C Jacobians (for Apply and the
// preconditioner) without stamping a global pattern.
func (s *mfSystem) Linearize(x []float64) ([]float64, la.Operator, error) {
	s.asm.evalGrid(x, device.EvalCtx{Torus: true, Lambda: 1}, true)
	copy(s.r0, s.asm.r)
	return s.r0, s, nil
}

// Apply computes y = J(x₀)·v exactly from the per-point local Jacobians:
// row block p gets G(p)·v_p plus the d1 (fast-axis) and d2 (slow-axis)
// stencil sums of coef·C(pp)·v_pp over the neighbour points pp — precisely
// the terms the grid's block stencil replays into the global matrix. A first
// pass forms every point's C(p)·v_p once, since each is read by up to four
// stencil terms (offset 0 of both stencils among them); the second adds the
// terms up. Each grid point owns its output rows in both passes and reads
// only frozen linearisation data or the finished first pass, so the
// parallel fan-out is race-free and byte-deterministic.
//
//mpde:hotpath
//mpde:deterministic-parallel
func (s *mfSystem) Apply(v, y []float64) {
	a := s.asm
	n, N1, N2 := a.n, a.N1, a.N2
	cv := s.cv
	//mpde:alloc-ok one worker closure per apply, amortised over the whole grid
	a.parallel(N1*N2, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			a.cs[p].MulVec(v[p*n:(p+1)*n], cv[p*n:(p+1)*n])
		}
	})
	//mpde:alloc-ok one worker closure per apply, amortised over the whole grid
	a.parallel(N1*N2, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			i, j := p%N1, p/N1
			yp := y[p*n : (p+1)*n]
			a.gs[p].MulVec(v[p*n:(p+1)*n], yp) // a sum from +0 is never −0: the stamped 0 + 1·sum
			for sIdx, coef := range a.d1c {
				pp := j*N1 + mod(i+a.d1off[sIdx], N1)
				for li, u := range cv[pp*n : (pp+1)*n] {
					yp[li] += coef * u
				}
			}
			for sIdx, coef := range a.d2c {
				pp := mod(j+a.d2off[sIdx], N2)*N1 + i
				for li, u := range cv[pp*n : (pp+1)*n] {
					yp[li] += coef * u
				}
			}
		}
	})
}

// BuildPreconditioner (re)factors the line-sweep preconditioner from the
// local Jacobians the last Linearize left in the assembler.
func (s *mfSystem) BuildPreconditioner() (la.Preconditioner, error) {
	if s.prec == nil {
		s.prec = newLinePrecond(s.asm)
	}
	if err := s.prec.build(); err != nil {
		return nil, err
	}
	return s.prec, nil
}

// linePrecond is the MPDE Jacobian's block lower triangle in slow-axis line
// order, less the periodic wrap. Diagonal block j is the exact (N1·n)×(N1·n)
// block for line j — the G stamps, the in-line d2 diagonal term and the
// fast-axis d1 stencil C terms; the d2 terms below it are read from the
// per-point C blocks in place. One block stencil describes every line, line
// j as its group j, so all N2 blocks share one sparsity pattern (the union
// over every grid point's local stamps) and a BatchLU factors one
// representative line symbolically and refactors the rest numerics-only.
// The builds fan the lines over the assembly pool; the apply is a
// sequential sweep.
type linePrecond struct {
	asm *assembler
	ln  int // block dimension N1·n

	// Line j's block row i sums G, d2c[0]·C and the d1 terms, weighted by
	// coef = [1, d2c[0], d1c…].
	jac     *la.BlockStencil
	coef    []float64
	workers []lineWorker // one per assembly worker
	batch   *la.BatchLU

	// Batch slots that reused the shared analysis and that fell back to a
	// fresh factorisation, summed over the builds since the stencil last
	// compiled.
	refactored, fallbacks int
}

// lineWorker is one pool worker's private state for replaying and
// factoring lines; worker 0's scratch also serves the sweep.
type lineWorker struct {
	m    la.CSR    // line values over the shared line pattern
	work []float64 // LU scratch for this worker's slot refactors

	// The worker's share of the last build.
	refactored, fallbacks int
	err                   error // the worker's first unfactorable line
}

func newLinePrecond(a *assembler) *linePrecond {
	N1, np := a.N1, a.N1*a.N2
	terms := make([]la.BlockTerm, 0, np*(2+len(a.d1c)))
	groups := make([][]la.BlockTerm, a.N2)
	for j := range groups {
		start := len(terms)
		for i := 0; i < N1; i++ {
			gp := j*N1 + i
			terms = append(terms, la.Term(i, i, gp, 0), la.Term(i, i, np+gp, 1))
			for s := range a.d1c {
				ii := mod(i+a.d1off[s], N1)
				terms = append(terms, la.Term(i, ii, np+j*N1+ii, 2+s))
			}
		}
		groups[j] = terms[start:]
	}
	p := &linePrecond{asm: a, ln: N1 * a.n,
		jac:     la.NewBlockStencil(a.n, N1, N1, a.src, groups),
		coef:    append([]float64{1, a.d2c[0]}, a.d1c...),
		workers: make([]lineWorker, a.workers)}
	for w := range p.workers {
		p.workers[w].work = make([]float64, p.ln)
	}
	return p
}

// build replays and refactors every line block against the shared
// symbolic analysis: the first build after a compile factors line 0 as the
// representative, and every line of every build (including later Newton
// refreshes) is a numeric-only refactor into its batch slot reusing that
// analysis.
func (p *linePrecond) build() error {
	if p.jac.Prepare() {
		// A new pattern: the old symbolic analysis, and what it counted,
		// are void.
		for w := range p.workers {
			p.jac.Bind(&p.workers[w].m)
		}
		p.batch = nil
		p.refactored, p.fallbacks = 0, 0
	}
	return p.factorLines()
}

// factorLines runs one build pass, the N2 lines fanned over the assembly
// pool, each worker replaying into its own line matrix and factoring into
// the line's own slot. It returns the first unfactorable line's error.
//
//mpde:deterministic-parallel
func (p *linePrecond) factorLines() error {
	a := p.asm
	if p.batch == nil {
		rep := &p.workers[0].m
		p.jac.Replay(rep.Val, p.coef, 0, 0, a.N1)
		b, err := la.NewBatchLU(rep, a.opt.Newton.PivotTol, a.N2)
		if err != nil {
			return err
		}
		p.batch = b
	}
	for w := range p.workers {
		lw := &p.workers[w]
		lw.refactored, lw.fallbacks, lw.err = 0, 0, nil
	}
	a.parallel(a.N2, func(w, lo, hi int) {
		lw := &p.workers[w]
		for j := lo; j < hi; j++ {
			p.jac.Replay(lw.m.Val, p.coef, j, 0, a.N1)
			fb, err := p.batch.Refactor(j, &lw.m, lw.work)
			if err != nil {
				lw.err = err
				return
			}
			if fb {
				lw.fallbacks++
			} else {
				lw.refactored++
			}
		}
	})
	var err error
	for w := range p.workers {
		lw := &p.workers[w]
		p.refactored += lw.refactored
		p.fallbacks += lw.fallbacks
		if err == nil {
			err = lw.err
		}
	}
	return err
}

// Precondition applies z = M⁻¹·r as one forward sweep along t2, the
// linearised backward-Euler march: line j's right-hand side first subtracts
// the d2 terms d2c[s]·C·z of the lines already solved, then its slot solves
// it in place. The sweep is sequential, on worker 0's scratch.
//
//mpde:hotpath
func (p *linePrecond) Precondition(r, z []float64) {
	a := p.asm
	n, ln := a.n, p.ln
	work := p.workers[0].work
	for j := 0; j < a.N2; j++ {
		zj := z[j*ln : (j+1)*ln]
		copy(zj, r[j*ln:(j+1)*ln])
		for s := 1; s < len(a.d2c); s++ {
			jj := j + a.d2off[s]
			if jj < 0 {
				continue // a periodic wrap term, left to GMRES
			}
			for i, c := range a.cs[jj*a.N1 : (jj+1)*a.N1] {
				c.MulVec(z[jj*ln+i*n:jj*ln+(i+1)*n], work[i*n:(i+1)*n])
			}
			for k, u := range work {
				zj[k] -= a.d2c[s] * u
			}
		}
		p.batch.Solve(j, zj, zj, work)
	}
}
