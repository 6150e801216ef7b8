package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/transient"
)

// EnvelopeOptions configures envelope-following: a backward-Euler march in
// the slow time t2 where each step solves a periodic boundary-value problem
// along the fast axis t1. Unlike QPSS it does not impose periodicity in t2,
// so it captures envelope start-up transients (e.g. how the baseband settles
// after the RF drive switches on) — one of the "time-domain numerical
// methods in [9]" the paper points to for solving the reformulated MPDE.
type EnvelopeOptions struct {
	// N1 is the fast-axis grid size (default 40).
	N1 int
	// Shear defines the time-scale map (required).
	Shear Shear
	// T2Stop is the slow-time horizon; default one difference period Td.
	T2Stop float64
	// StepT2 is the slow step (default Td/30). With the LTE controller on
	// (RelTol > 0) it is only the initial step; the controller grows and
	// shrinks it from there.
	StepT2 float64
	// RelTol, when > 0, turns on local-truncation-error step control: every
	// backward-Euler step's LTE is estimated against the linear predictor
	// from the previous two accepted lines, steps whose weighted error
	// exceeds 1 are rejected and retried smaller, and accepted steps grow
	// toward T2Stop/10. RelTol = 0 marches fixed StepT2 steps. In both
	// modes a failed Newton solve halves the step, down to a floor of
	// StepT2·1e-6; a step that fails at the floor ends the march with a
	// step-underflow error instead of stalling.
	RelTol float64
	// AbsTol is the absolute error floor of the LTE test (default 1e-9),
	// guarding unknowns that idle near zero.
	AbsTol float64
	// Newton configures the per-step solves. Set fields survive: defaults
	// are filled non-destructively, so Linear/PivotTol/… set by the caller
	// are honoured even when MaxIter is left zero.
	Newton solver.Options
	// X0Line optionally warm-starts the first fast line (length N1·n).
	X0Line []float64
}

// EnvelopeResult is a slow-time trajectory of fast-periodic lines.
type EnvelopeResult struct {
	Ckt   *circuit.Circuit
	Shear Shear
	N1    int
	// T2 are the slow time points; Lines[j] is the fast line at T2[j] with
	// layout i·n + k.
	T2    []float64
	Lines [][]float64

	// Stats totals the Newton work of every per-step solve, rejected
	// attempts included. PatternBuilds/PatternReuse count the line
	// Jacobian's new block-stencil plans, compiled or loaded from the
	// process-wide table, and its replays into an unchanged pattern (the
	// pattern is shared by every slow step — one plan serves every step
	// size the controller tries).
	Stats         solver.Stats
	PatternBuilds int
	PatternReuse  int
	// AcceptedSteps counts slow steps that advanced the march;
	// RejectedSteps counts attempts thrown away — LTE-test failures under
	// the controller plus Newton-failure halvings in either mode.
	AcceptedSteps int
	RejectedSteps int
	n             int
}

// Baseband returns the t1-average of unknown k along the slow axis.
func (e *EnvelopeResult) Baseband(k int) []float64 {
	out := make([]float64, len(e.T2))
	for j := range e.Lines {
		sum := 0.0
		for i := 0; i < e.N1; i++ {
			sum += e.Lines[j][i*e.n+k]
		}
		out[j] = sum / float64(e.N1)
	}
	return out
}

// lineAssembler is the solver.System of one envelope step: the fast-axis
// periodic BVP D1[q] + (q − qPrev)/h2 + f + b̂(·, t2) = 0 at slow time t2,
// where a nil qPrev drops the slow derivative (the initial fast-periodic
// line). Like the QPSS grid assembler it compiles the line Jacobian's block
// stencil once and replays it — the pattern is identical for every slow
// step, so the whole march shares one compile.
type lineAssembler struct {
	ev *circuit.Eval
	// tab records each line point's source values; a new slow time
	// re-records them, once per slow step.
	tab   *device.SourceTable
	sh    Shear
	n, N1 int
	h1    float64

	// The step being solved: its end time, size and the charges of the
	// line it starts from.
	t2, h2 float64
	qPrev  []float64

	q, r   []float64
	gs, cs []*la.CSR // views of src: every point's G, then every point's C

	// Block row i sums G(i), cDiag·C(i) and the wrap term (-1/h1)·C(i-1),
	// weighted by coef = [1, cDiag, -1/h1]; cDiag = 1/h1, plus 1/h2 when
	// marching.
	jac           *la.BlockStencil
	coef          [3]float64
	jm            la.CSR
	builds, reuse int
}

func newLineAssembler(ckt *circuit.Circuit, sh Shear, n, N1 int, h1 float64) *lineAssembler {
	a := &lineAssembler{
		ev: ckt.NewEval(), tab: device.NewSourceTable(N1), sh: sh, n: n, N1: N1, h1: h1,
		q: make([]float64, N1*n),
		r: make([]float64, N1*n),
	}
	src := make([]*la.CSR, 2*N1)
	for i := range src {
		src[i] = &la.CSR{}
	}
	a.gs, a.cs = src[:N1], src[N1:]
	terms := make([]la.BlockTerm, 0, 3*N1)
	for i := 0; i < N1; i++ {
		im := mod(i-1, N1)
		terms = append(terms, la.Term(i, i, i, 0), la.Term(i, i, N1+i, 1), la.Term(i, im, N1+im, 2))
	}
	a.jac = la.NewBlockStencil(n, N1, N1, src, [][]la.BlockTerm{terms})
	return a
}

// Size is the number of line unknowns.
func (a *lineAssembler) Size() int { return len(a.r) }

// Eval returns the step's residual and, when jac is set, its Jacobian, and
// leaves the line's charges in a.q. All of them are reused by the next call.
//
//mpde:hotpath
func (a *lineAssembler) Eval(xx []float64, jac bool) ([]float64, *la.CSR, error) {
	n, N1 := a.n, a.N1
	for i := 0; i < N1; i++ {
		th1, th2 := a.sh.Phases(float64(i)*a.h1, a.t2)
		ctx := device.EvalCtx{Torus: true, Th1: th1, Th2: th2, Lambda: 1}
		var cDst, gDst *la.CSR
		if jac {
			cDst, gDst = a.cs[i], a.gs[i]
		}
		out := a.ev.EvalPoint(a.tab, i, xx[i*n:(i+1)*n], ctx, jac, cDst, gDst)
		copy(a.q[i*n:(i+1)*n], out.Q)
		for k := 0; k < n; k++ {
			a.r[i*n+k] = out.F[k] + out.B[k]
			if a.qPrev != nil {
				a.r[i*n+k] += (out.Q[k] - a.qPrev[i*n+k]) / a.h2
			}
		}
	}
	// Fast-axis backward difference with periodic wrap.
	for i := 0; i < N1; i++ {
		im := mod(i-1, N1)
		for k := 0; k < n; k++ {
			a.r[i*n+k] += (a.q[i*n+k] - a.q[im*n+k]) / a.h1
		}
	}
	if !jac {
		return a.r, nil, nil
	}
	cDiag := 1 / a.h1
	if a.qPrev != nil {
		cDiag += 1 / a.h2
	}
	a.coef = [3]float64{1, cDiag, -1 / a.h1}
	if a.jac.Assemble(&a.jm, a.coef[:]) {
		a.builds++
	} else {
		a.reuse++
	}
	return a.r, &a.jm, nil
}

// EnvelopeFollow integrates the MPDE in the slow time scale. Cancelling ctx
// aborts the march cooperatively between Newton iterations (the partial
// trajectory marched so far is returned alongside the error); an
// already-canceled context returns ctx.Err() before any assembly work.
func EnvelopeFollow(ctx context.Context, ckt *circuit.Circuit, opt EnvelopeOptions) (*EnvelopeResult, error) {
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
		opt.N1 = 40
	}
	if opt.T2Stop <= 0 {
		opt.T2Stop = opt.Shear.Td()
	}
	if opt.StepT2 <= 0 {
		opt.StepT2 = opt.Shear.Td() / 30
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 1e-9
	}
	// Non-destructive Newton defaults: a caller's linear-solver choice
	// survives a zero MaxIter.
	if opt.Newton.MaxIter == 0 {
		opt.Newton.MaxIter = 60
	}
	opt.Newton.Fill()
	ckt.Finalize()
	n := ckt.Size()
	N1 := opt.N1

	ctx, span := obs.Start(ctx, "envelope.march")
	if span != nil {
		span.SetInt("n1", int64(N1))
		span.SetInt("line_unknowns", int64(N1*n))
		defer span.End()
	}

	res := &EnvelopeResult{Ckt: ckt, Shear: opt.Shear, N1: N1, n: n}
	x, err := transient.StartState(ctx, ckt, opt.X0Line, 0, N1, "core: envelope")
	if err != nil {
		return nil, err
	}
	m := newEnvelopeMarch(ckt, opt.Shear, N1)
	err = m.run(ctx, x, &opt, opt.StepT2*1e-6, func(_ int, t2 float64, line []float64) {
		res.T2 = append(res.T2, t2)
		res.Lines = append(res.Lines, append([]float64(nil), line...))
	})
	if len(res.Lines) == 0 {
		return nil, err
	}
	res.Stats = m.st
	res.PatternBuilds, res.PatternReuse = m.asm.builds, m.asm.reuse
	res.AcceptedSteps, res.RejectedSteps = m.accepted, m.rejected
	return res, err
}

// envelopeMarch is the envelope's step loop, shared by EnvelopeFollow and
// the QPSS march start. Every line solve runs through one Newton
// workspace, so each step starts from a numeric refactorisation of the
// previous step's LU in its pivot order, and a warm step allocates
// nothing.
type envelopeMarch struct {
	asm *lineAssembler
	ws  solver.Workspace
	// st totals the Newton work of every line solve, rejected attempts
	// included; accepted and rejected count slow steps as EnvelopeResult's
	// AcceptedSteps and RejectedSteps do.
	st                 solver.Stats
	accepted, rejected int
}

func newEnvelopeMarch(ckt *circuit.Circuit, sh Shear, N1 int) *envelopeMarch {
	return &envelopeMarch{asm: newLineAssembler(ckt, sh, ckt.Size(), N1, sh.T1()/float64(N1))}
}

// run solves the initial fast-periodic line from x with the slow
// derivative off, then marches it in t2 to opt.T2Stop, solving every step
// in place in x. accept receives each accepted line with its step count
// (0 for the initial line) and slow time; the line is x itself, so accept
// copies what it keeps. A failed step solve halves the step down to
// minStep, and a step that fails at minStep ends the march. Cancelling ctx
// ends it with the solver's interrupt.
func (m *envelopeMarch) run(ctx context.Context, x []float64, opt *EnvelopeOptions, minStep float64,
	accept func(k int, t2 float64, line []float64)) error {
	asm := m.asm
	n, N1 := asm.n, asm.N1
	nLine := N1 * n
	st, err := m.ws.SolveTimed(ctx, asm, x, opt.Newton)
	m.st.Add(st)
	if err != nil {
		return fmt.Errorf("core: envelope initial fast-periodic line failed: %w", err)
	}
	accept(0, 0, x)

	// March in t2. A converged solve's last evaluation was residual-only
	// at its solution, so asm.q holds the line's charges: the initial
	// line's here, each accepted line's at its acceptance.
	asm.qPrev = append([]float64(nil), asm.q...)

	// With RelTol > 0 each solved step passes an LTE test. The estimate is
	// the classic divided-difference one: the backward-Euler LTE h²/2·x″ is
	// approximated from the mismatch between the solved line and the linear
	// predictor through the previous two accepted lines,
	// LTE ≈ (x − x_pred)·h/(h+hPrev). The weighted ∞-norm of that estimate
	// against AbsTol + RelTol·|x| decides acceptance; the next step follows
	// the standard order-1 controller h·(safety/√err) clamped to
	// [minStep, maxStep]. Without it every step is StepT2.
	lte := opt.RelTol > 0
	maxStep := opt.T2Stop / 10
	var (
		t2    = 0.0
		h2    = opt.StepT2
		hPrev = 0.0                          // step between the last two accepted lines
		xm1   []float64                      // accepted line before xAcc (nil on the first step)
		xAcc  = append([]float64(nil), x...) // last accepted line (step start)
		pred  []float64
		scale []float64 // per-unknown LTE scale, rebuilt each step
	)
	if lte {
		h2 = math.Min(h2, maxStep)
		pred, scale = make([]float64, nLine), make([]float64, n)
	}
	// The march ends when less than half the step floor remains: a shorter
	// step is rounding in t2, which sums StepT2 steps short of T2Stop.
	for opt.T2Stop-t2 > minStep/2 {
		if h2 < minStep {
			h2 = minStep
		}
		if t2+h2 > opt.T2Stop {
			h2 = opt.T2Stop - t2
		}
		asm.t2, asm.h2 = t2+h2, h2
		st, err := m.ws.SolveTimed(ctx, asm, x, opt.Newton)
		m.st.Add(st)
		if err != nil {
			if solver.Interrupted(err) {
				return fmt.Errorf("core: envelope interrupted at t2=%.3e: %w", t2, err)
			}
			m.rejected++
			copy(x, xAcc) // discard the failed iterate as a warm start
			// The attempted step (after any final-step truncation) is h2
			// itself; once it has reached the floor a retry would replay the
			// identical solve, so fail instead of spinning.
			if h2 <= minStep {
				return fmt.Errorf("core: envelope step underflow at t2=%.3e: %w", t2, err)
			}
			h2 = math.Max(h2/2, minStep)
			continue
		}
		errNorm := 0.0
		if lte {
			// The first step has no history, so the (conservative)
			// predictor is the line itself.
			var coef float64
			if xm1 == nil {
				copy(pred, xAcc)
				coef = 0.5
			} else {
				g := h2 / hPrev
				for i := range pred {
					pred[i] = xAcc[i] + g*(xAcc[i]-xm1[i])
				}
				coef = h2 / (h2 + hPrev)
			}
			// Each circuit unknown is scaled by its amplitude over the fast
			// line, not entry by entry: a carrier crossing zero at one fast
			// index is not a small signal, and a per-entry scale there would
			// force absurdly small slow steps.
			for k := 0; k < n; k++ {
				amp := 0.0
				for i := 0; i < N1; i++ {
					amp = math.Max(amp, math.Max(math.Abs(x[i*n+k]), math.Abs(xAcc[i*n+k])))
				}
				scale[k] = opt.AbsTol + opt.RelTol*amp
			}
			for i := range x {
				if e := math.Abs(x[i]-pred[i]) * coef / scale[i%n]; e > errNorm {
					errNorm = e
				}
			}
			if errNorm > 1 && h2 > minStep {
				m.rejected++
				copy(x, xAcc)
				h2 = math.Max(h2*math.Max(0.1, math.Min(0.5, 0.9/math.Sqrt(errNorm))), minStep)
				continue
			}
			hPrev = h2
			if xm1 == nil {
				xm1 = make([]float64, nLine)
			}
			copy(xm1, xAcc)
		}
		copy(xAcc, x)
		copy(asm.qPrev, asm.q)
		t2 += h2
		m.accepted++
		accept(m.accepted, t2, x)
		if lte {
			h2 = math.Min(h2*math.Max(0.3, math.Min(2, 0.9/math.Sqrt(math.Max(errNorm, 1e-10)))), maxStep)
		} else {
			h2 = opt.StepT2
		}
	}
	return nil
}
