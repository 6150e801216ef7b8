package transient

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/obs"
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

// Options configures a transient run, which marches from t = 0 to TStop.
type Options struct {
	Method Method
	TStop  float64
	Step   float64 // initial (and, for FixedStep, the only) step size
	// FixedStep disables local-truncation-error control for a deterministic
	// grid (the disparity sweep's transient baseline).
	FixedStep bool
	// X0 is the initial condition; nil → compute a DC operating point.
	X0     []float64
	Newton solver.Options
}

// lteTol is the adaptive march's relative local-truncation-error target;
// maxPoints caps the stored time points of a run.
const (
	lteTol    = 1e-3
	maxPoints = 4_000_000
)

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

// Run integrates the circuit over [0, TStop]. Adaptive steps stay within
// [Step·1e-9, TStop/50]. Cancelling ctx aborts the march cooperatively
// between Newton iterations; an already-canceled context returns ctx.Err()
// before any assembly work.
func Run(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ckt.Finalize()
	n := ckt.Size()
	if opt.TStop <= 0 {
		return nil, fmt.Errorf("transient: empty interval [0, %g]", opt.TStop)
	}
	if opt.Step <= 0 {
		opt.Step = opt.TStop / 1000
	}
	maxStep, minStep := opt.TStop/50, opt.Step*1e-9
	opt.Newton.Fill() // non-destructive: set fields survive

	x, err := StartState(ctx, ckt, opt.X0, 0, 1, "transient")
	if err != nil {
		return nil, err
	}

	res := &Result{}
	record := func(t float64, xx []float64) {
		res.T = append(res.T, t)
		res.X = append(res.X, append([]float64(nil), xx...))
	}
	record(0, x)

	sys := NewStepper(ckt)
	defer func() { res.Stats = sys.Stats }()
	sys.Start(x, 0, false)

	t := 0.0
	h := opt.Step
	xPrev := append([]float64(nil), x...)
	xNew := make([]float64, n)
	pred := make([]float64, n)

	for t < opt.TStop-1e-15*opt.TStop {
		if len(res.T) > maxPoints {
			return res, fmt.Errorf("transient: exceeded %d stored points", maxPoints)
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

		copy(xNew, x)
		if err := sys.Step(ctx, xNew, method, tNew, h, opt.Newton); err != nil {
			if solver.Interrupted(err) {
				return res, fmt.Errorf("transient: interrupted at t=%.6e: %w", t, err)
			}
			h /= 4
			res.Rejected++
			if h < minStep {
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
				den := opt.Newton.AbsTol + math.Abs(xNew[i])*lteTol
				if r := e / den; r > lte {
					lte = r
				}
			}
			if lte > 20 { // reject: predictor badly wrong
				h = hTaken / 2
				res.Rejected++
				if h < minStep {
					return res, fmt.Errorf("%w at t=%.6e (LTE)", ErrStepUnderflow, t)
				}
				continue
			}
			// Gentle step adaptation for the NEXT step.
			if lte < 0.5 {
				h = math.Min(hTaken*1.5, maxStep)
			} else if lte > 2 {
				h = math.Max(hTaken/1.5, minStep)
			}
		}

		sys.Accept()
		copy(xPrev, x)
		copy(x, xNew)
		t = tNew
		res.Steps++
		record(t, x)
	}
	return res, nil
}

// StartState returns a march's starting state over points copies of the
// circuit's unknowns: a copy of x0 when given (its length must be
// points·n), else the DC operating point at time t replicated points
// times. The DC solve is not in the march's Stats, so it runs detached from
// the trace. Errors carry prefix.
func StartState(ctx context.Context, ckt *circuit.Circuit, x0 []float64, t float64, points int, prefix string) ([]float64, error) {
	n := ckt.Size()
	if x0 != nil {
		if len(x0) != points*n {
			return nil, fmt.Errorf("%s: X0 size %d, want %d", prefix, len(x0), points*n)
		}
		return append([]float64(nil), x0...), nil
	}
	xdc, _, err := DC(obs.Detach(ctx), ckt, DCOptions{Time: t})
	if err != nil {
		return nil, fmt.Errorf("%s: DC start failed: %w", prefix, err)
	}
	x := make([]float64, points*n)
	for p := 0; p < points; p++ {
		copy(x[p*n:(p+1)*n], xdc)
	}
	return x, nil
}

// Stepper is the implicit step engine of transient's Run and shooting's
// period integration: per step, the solver.System of the method's charge
// derivative plus f(x) + b(t), with Jacobian G + cScale·C. Its storage and
// the Newton workspace carrying the LU live for the whole march. A march
// calls Start, then per step Step, optionally Linearize, and Accept.
type Stepper struct {
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
	ws   solver.Workspace
	// Stats totals the Newton work of every step solve, failed ones too.
	Stats solver.Stats
}

// NewStepper returns a stepper over the finalised circuit ckt.
func NewStepper(ckt *circuit.Circuit) *Stepper {
	n := ckt.Size()
	s := &Stepper{ev: ckt.NewEval(), coef: [2]float64{1, 0},
		qPrev: make([]float64, n), qPrev2: make([]float64, n), qdotPrev: make([]float64, n),
		resid: make([]float64, n)}
	s.jac = la.NewStepStencil(n, &s.g, &s.c)
	return s
}

// Start takes the charge and dq/dt ≈ −(f+b) at the march's start x, t.
// With jac it also returns C (nil without), valid until the next evaluation.
func (s *Stepper) Start(x []float64, t float64, jac bool) *la.CSR {
	s.last = s.ev.EvalAtInto(x, device.EvalCtx{T: t, Lambda: 1}, jac, &s.c, &s.g)
	r := &s.last
	copy(s.qPrev, r.Q)
	for i := range s.qdotPrev {
		s.qdotPrev[i] = -(r.F[i] + r.B[i])
	}
	return r.C
}

// Step solves the method's step to time t with step h in place from x.
//
//mpde:hotpath
func (s *Stepper) Step(ctx context.Context, x []float64, method Method, t, h float64, opt solver.Options) error {
	s.method, s.t, s.h = method, t, h
	switch method {
	case TRAP:
		s.coef[1] = 2 / h
	case GEAR2:
		s.coef[1] = (2*h + s.hPrev) / (h * (h + s.hPrev))
	default: // BE
		s.coef[1] = 1 / h
	}
	st, err := s.ws.Solve(ctx, s, x, opt)
	s.Stats.Add(st)
	return err
}

// Accept moves the history past the converged step, taking the charge and
// dq/dt from the last evaluation, which was at the accepted point.
//
//mpde:hotpath
func (s *Stepper) Accept() {
	r := &s.last
	switch s.method {
	case TRAP:
		for i := range s.qdotPrev {
			s.qdotPrev[i] = 2*(r.Q[i]-s.qPrev[i])/s.h - s.qdotPrev[i]
		}
	default:
		for i := range s.qdotPrev {
			s.qdotPrev[i] = -(r.F[i] + r.B[i])
		}
	}
	s.qPrev2, s.qPrev = s.qPrev, s.qPrev2
	copy(s.qPrev, r.Q)
	s.hPrev = s.h
}

// Linearize re-evaluates at the accepted point x of the last Step and
// returns J = G + cScale·C and C, valid until the next evaluation.
//
//mpde:hotpath
func (s *Stepper) Linearize(x []float64) (j, c *la.CSR) {
	s.last = s.ev.EvalAtInto(x, device.EvalCtx{T: s.t, Lambda: 1}, true, &s.c, &s.g)
	s.jac.Assemble(&s.jm, s.coef[:])
	return &s.jm, s.last.C
}

// Size is the number of unknowns.
func (s *Stepper) Size() int { return len(s.resid) }

// Eval returns the current step's residual and, when jac is set, its
// Jacobian; both live in the stepper's storage.
//
//mpde:hotpath
func (s *Stepper) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	s.last = s.ev.EvalAtInto(x, device.EvalCtx{T: s.t, Lambda: 1}, jac, &s.c, &s.g)
	r := &s.last
	out, hh := s.resid, s.h
	qPrev := s.qPrev
	switch s.method {
	case TRAP:
		for i := range out {
			out[i] = 2*(r.Q[i]-qPrev[i])/hh - s.qdotPrev[i] + r.F[i] + r.B[i]
		}
	case GEAR2:
		hn, hm := hh, s.hPrev
		a0 := s.coef[1]
		a1 := -(hn + hm) / (hn * hm)
		a2 := hn / (hm * (hn + hm))
		for i := range out {
			out[i] = a0*r.Q[i] + a1*qPrev[i] + a2*s.qPrev2[i] + r.F[i] + r.B[i]
		}
	default: // BE
		for i := range out {
			out[i] = (r.Q[i]-qPrev[i])/hh + r.F[i] + r.B[i]
		}
	}
	if !jac {
		return out, nil, nil
	}
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
