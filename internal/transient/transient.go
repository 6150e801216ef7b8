package transient

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// Method selects the integration formula.
type Method int

const (
	// BE is backward Euler (L-stable, first order).
	BE Method = iota
	// TRAP is the trapezoidal rule (A-stable, second order).
	TRAP
	// GEAR2 is the two-step BDF (L-stable, second order, variable step).
	GEAR2
)

// String names the method.
func (m Method) String() string {
	switch m {
	case BE:
		return "BE"
	case TRAP:
		return "TRAP"
	case GEAR2:
		return "GEAR2"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a transient run.
type Options struct {
	Method  Method
	TStart  float64
	TStop   float64
	Step    float64 // initial (and, for FixedStep, the only) step size
	MaxStep float64 // 0 → (TStop−TStart)/50
	MinStep float64 // 0 → Step·1e-9
	// FixedStep disables local-truncation-error control (used by shooting,
	// which needs a deterministic grid).
	FixedStep bool
	// LTETol is the relative local-truncation-error target (default 1e-3).
	LTETol float64
	// X0 is the initial condition; nil → compute a DC operating point.
	X0     []float64
	Newton solver.Options
	// MaxPoints caps stored time points (default 4e6 guard).
	MaxPoints int
}

// Result is a stored trajectory.
type Result struct {
	T []float64
	X [][]float64 // X[k] is the state at T[k]
	// Steps counts accepted steps; Rejected counts steps retried smaller
	// (LTE rejections and Newton failures).
	Steps, Rejected int
	// Stats totals the Newton work of every step solve, rejected attempts
	// included.
	Stats solver.Stats
}

// At linearly interpolates the state at time t into dst.
func (r *Result) At(t float64, dst []float64) []float64 {
	n := len(r.T)
	if dst == nil {
		dst = make([]float64, len(r.X[0]))
	}
	if n == 0 {
		return dst
	}
	if t <= r.T[0] {
		copy(dst, r.X[0])
		return dst
	}
	if t >= r.T[n-1] {
		copy(dst, r.X[n-1])
		return dst
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	w := (t - r.T[lo]) / (r.T[hi] - r.T[lo])
	for i := range dst {
		dst[i] = r.X[lo][i] + w*(r.X[hi][i]-r.X[lo][i])
	}
	return dst
}

// Probe extracts the waveform of one unknown index.
func (r *Result) Probe(idx int) []float64 {
	out := make([]float64, len(r.T))
	for k, x := range r.X {
		out[k] = x[idx]
	}
	return out
}

// ErrStepUnderflow is returned when LTE control cannot find a workable step.
var ErrStepUnderflow = errors.New("transient: time step underflow")

// Run integrates the circuit over [TStart, TStop]. Cancelling ctx aborts
// the march cooperatively between Newton iterations; an already-canceled
// context returns ctx.Err() before any assembly work.
func Run(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ckt.Finalize()
	ev := ckt.NewEval()
	n := ckt.Size()
	if opt.TStop <= opt.TStart {
		return nil, fmt.Errorf("transient: empty interval [%g, %g]", opt.TStart, opt.TStop)
	}
	if opt.Step <= 0 {
		opt.Step = (opt.TStop - opt.TStart) / 1000
	}
	if opt.MaxStep <= 0 {
		opt.MaxStep = (opt.TStop - opt.TStart) / 50
	}
	if opt.MinStep <= 0 {
		opt.MinStep = opt.Step * 1e-9
	}
	if opt.LTETol <= 0 {
		opt.LTETol = 1e-3
	}
	// Non-destructive Newton defaults (set fields survive a zero MaxIter).
	if opt.Newton.MaxIter == 0 {
		opt.Newton.Damping = true
	}
	opt.Newton.Fill()
	if opt.MaxPoints <= 0 {
		opt.MaxPoints = 4_000_000
	}

	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, fmt.Errorf("transient: X0 size %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	} else {
		x0, _, err := DC(ctx, ckt, DCOptions{Time: opt.TStart})
		if err != nil {
			return nil, fmt.Errorf("transient: initial DC failed: %w", err)
		}
		copy(x, x0)
	}

	res := &Result{}
	record := func(t float64, xx []float64) {
		res.T = append(res.T, t)
		res.X = append(res.X, append([]float64(nil), xx...))
	}
	record(opt.TStart, x)

	// Per-run step system: device Jacobian storage, the combined step
	// Jacobian, the residual and the charge history all live for the whole
	// march, and one Newton workspace carries the LU from step to step.
	sys := &stepSystem{ev: ev, coef: [2]float64{1, 0},
		qPrev: make([]float64, n), qPrev2: make([]float64, n), qdotPrev: make([]float64, n),
		resid: make([]float64, n)}
	sys.jac = la.NewStepStencil(n, &sys.g, &sys.c)
	var ws solver.Workspace
	// History for multi-step formulas: charge vectors and derivative
	// dq/dt ≈ −(f+b) at the previous point.
	r0 := ev.EvalAt(x, device.EvalCtx{T: opt.TStart, Lambda: 1}, false)
	copy(sys.qPrev, r0.Q)
	for i := range sys.qdotPrev {
		sys.qdotPrev[i] = -(r0.F[i] + r0.B[i])
	}
	qNew := make([]float64, n)

	t := opt.TStart
	h := opt.Step
	xPrev := append([]float64(nil), x...)
	xNew := make([]float64, n)
	pred := make([]float64, n)

	for t < opt.TStop-1e-15*(opt.TStop-opt.TStart) {
		if len(res.T) > opt.MaxPoints {
			return res, fmt.Errorf("transient: exceeded MaxPoints=%d", opt.MaxPoints)
		}
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		hTaken := h
		tNew := t + hTaken

		method := opt.Method
		if method == GEAR2 && res.Steps == 0 {
			method = BE // bootstrap the two-step formula
		}
		if method == TRAP && res.Steps == 0 {
			method = BE // damp the initial-derivative transient
		}
		sys.method, sys.t, sys.h = method, tNew, h

		copy(xNew, x)
		st, err := ws.Solve(ctx, sys, xNew, opt.Newton)
		res.Stats.Add(st)
		if err != nil {
			if solver.Interrupted(err) {
				return res, fmt.Errorf("transient: interrupted at t=%.6e: %w", t, err)
			}
			h /= 4
			res.Rejected++
			if h < opt.MinStep {
				return res, fmt.Errorf("%w at t=%.6e (Newton: %v)", ErrStepUnderflow, t, err)
			}
			continue
		}

		if !opt.FixedStep && res.Steps > 0 {
			// LTE estimate: compare the corrector against a linear
			// extrapolation through the last two accepted points; the ratio
			// is normalised so lte ≈ 1 means "error at the LTE target".
			extrapolate(pred, xPrev, x, sys.hPrev, hTaken)
			lte := 0.0
			for i := range pred {
				e := math.Abs(xNew[i] - pred[i])
				den := opt.Newton.AbsTol + math.Abs(xNew[i])*opt.LTETol
				if r := e / den; r > lte {
					lte = r
				}
			}
			if lte > 20 { // reject: predictor badly wrong
				h = hTaken / 2
				res.Rejected++
				if h < opt.MinStep {
					return res, fmt.Errorf("%w at t=%.6e (LTE)", ErrStepUnderflow, t)
				}
				continue
			}
			// Gentle step adaptation for the NEXT step.
			if lte < 0.5 {
				h = math.Min(hTaken*1.5, opt.MaxStep)
			} else if lte > 2 {
				h = math.Max(hTaken/1.5, opt.MinStep)
			}
		}

		// Accept. The converged solve's last evaluation was at xNew.
		rNew := &sys.last
		copy(qNew, rNew.Q)
		switch method {
		case TRAP:
			for i := range sys.qdotPrev {
				sys.qdotPrev[i] = 2*(qNew[i]-sys.qPrev[i])/hTaken - sys.qdotPrev[i]
			}
		default:
			for i := range sys.qdotPrev {
				sys.qdotPrev[i] = -(rNew.F[i] + rNew.B[i])
			}
		}
		sys.qPrev2, sys.qPrev, qNew = sys.qPrev, qNew, sys.qPrev2
		copy(xPrev, x)
		copy(x, xNew)
		sys.hPrev = hTaken
		t = tNew
		res.Steps++
		record(t, x)
	}
	return res, nil
}

// stepSystem is the solver.System of one implicit integration step at time
// t with step h: the method's discretised charge derivative plus f(x) + b(t),
// with Jacobian cScale·C + G. Run updates its fields between steps.
type stepSystem struct {
	ev     *circuit.Eval
	method Method
	t      float64
	// h is this step, hPrev the last accepted one (GEAR2's second point).
	h, hPrev float64
	// Charge at the last two accepted points and dq/dt at the last one.
	qPrev, qPrev2, qdotPrev []float64

	// The step Jacobian J = G + cScale·C, a one-block stencil over g and c
	// with coef = [1, cScale].
	c, g  la.CSR
	jac   *la.BlockStencil
	coef  [2]float64
	jm    la.CSR
	resid []float64
	// last is the latest evaluation: after a converged solve, the
	// accepted point's Q, F and B (solver.Workspace.Solve).
	last circuit.Result
}

func (s *stepSystem) Size() int { return len(s.resid) }

// Eval returns the step residual and, when jac is set, J = cScale·C + G;
// both live in the system's per-run storage.
//
//mpde:hotpath
func (s *stepSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	s.last = s.ev.EvalAtInto(x, device.EvalCtx{T: s.t, Lambda: 1}, jac, &s.c, &s.g)
	r := &s.last
	out, hh := s.resid, s.h
	qPrev := s.qPrev
	var cScale float64
	switch s.method {
	case TRAP:
		cScale = 2 / hh
		for i := range out {
			out[i] = 2*(r.Q[i]-qPrev[i])/hh - s.qdotPrev[i] + r.F[i] + r.B[i]
		}
	case GEAR2:
		hn, hm := hh, s.hPrev
		a0 := (2*hn + hm) / (hn * (hn + hm))
		a1 := -(hn + hm) / (hn * hm)
		a2 := hn / (hm * (hn + hm))
		cScale = a0
		for i := range out {
			out[i] = a0*r.Q[i] + a1*qPrev[i] + a2*s.qPrev2[i] + r.F[i] + r.B[i]
		}
	default: // BE
		cScale = 1 / hh
		for i := range out {
			out[i] = (r.Q[i]-qPrev[i])/hh + r.F[i] + r.B[i]
		}
	}
	if !jac {
		return out, nil, nil
	}
	s.coef[1] = cScale
	s.jac.Assemble(&s.jm, s.coef[:])
	return out, &s.jm, nil
}

// extrapolate writes the linear extrapolation through (t−hp, x1) and
// (t, x0), evaluated one step h ahead, into dst; hp ≤ 0 (no earlier point)
// holds x0.
func extrapolate(dst, x1, x0 []float64, hp, h float64) {
	if hp <= 0 {
		for i := range dst {
			dst[i] = x0[i]
		}
		return
	}
	for i := range dst {
		slope := (x0[i] - x1[i]) / hp
		dst[i] = x0[i] + slope*h
	}
}
