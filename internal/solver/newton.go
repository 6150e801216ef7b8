// Package solver provides the damped Newton–Raphson iteration and the
// homotopy/continuation machinery shared by every analysis (DC, transient
// steps, shooting, harmonic balance, MPDE). The paper's method reduces each
// analysis to "solve F(x)=0 with a sparse Jacobian", so a single careful
// implementation is reused throughout; the paper notes that when plain
// Newton fails on the mixer, continuation "reliably obtained solutions".
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/la"
	"repro/internal/obs"
)

// System is a nonlinear algebraic system F(x) = 0 with a sparse Jacobian.
type System interface {
	Size() int
	// Eval returns the residual at x and, when jac is set, the Jacobian.
	// Both returned values may alias storage the system reuses on its next
	// Eval call; Solve copies what it keeps across calls.
	Eval(x []float64, jac bool) (r []float64, j *la.CSR, err error)
}

// FuncSystem adapts closures to the System interface.
type FuncSystem struct {
	N int
	F func(x []float64, jac bool) ([]float64, *la.CSR, error)
}

// Size returns the system dimension.
func (s FuncSystem) Size() int { return s.N }

// Eval forwards to the closure.
func (s FuncSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	return s.F(x, jac)
}

// LinearSolverKind selects how Newton updates are solved. The values are
// part of the dispatch wire schema and of every cache key that embeds
// Newton options, so they are explicit and never renumbered: 1 was the
// retired assembled-Jacobian ILU(0)-GMRES mode and is rejected by Solve.
type LinearSolverKind int

const (
	// DirectSparse uses the Gilbert–Peierls sparse LU (default).
	DirectSparse LinearSolverKind = 0
	// MatrixFree uses GMRES with a Jacobian-vector product supplied by the
	// system instead of an assembled Jacobian; the system must implement
	// MatrixFreeSystem. This is the paper's "iterative linear solution
	// methods" configuration: large MPDE grids use it to stop paying LU
	// fill entirely.
	MatrixFree LinearSolverKind = 2
)

// String returns the registry spelling of the kind.
func (k LinearSolverKind) String() string {
	switch k {
	case DirectSparse:
		return "direct"
	case MatrixFree:
		return "matfree"
	default:
		return fmt.Sprintf("LinearSolverKind(%d)", int(k))
	}
}

// ParseLinearSolver maps the registry spelling ("direct", "matfree") to its
// kind. The empty string selects the default (direct).
func ParseLinearSolver(s string) (LinearSolverKind, error) {
	switch s {
	case "", "direct":
		return DirectSparse, nil
	case "matfree":
		return MatrixFree, nil
	default:
		return DirectSparse, fmt.Errorf("solver: unknown linear solver %q (want direct or matfree)", s)
	}
}

// MatrixFreeSystem is a System that can additionally present its Jacobian as
// an abstract operator. Linearize fixes the linearisation point: it returns
// the residual at x and an operator applying J(x)·v, valid until the next
// Linearize call. The MPDE grid's operator is exact: it multiplies v by the
// per-point local Jacobians (G = ∂f/∂x, C = ∂q/∂x) through the difference
// stencils, with no residual differencing.
// BuildPreconditioner returns a preconditioner for the current linearisation
// point (nil is allowed and means unpreconditioned).
type MatrixFreeSystem interface {
	System
	Linearize(x []float64) (r []float64, op la.Operator, err error)
	BuildPreconditioner() (la.Preconditioner, error)
}

// Options configures Newton.
type Options struct {
	MaxIter   int     // default 50
	AbsTol    float64 // per-unknown absolute tolerance (default 1e-9)
	RelTol    float64 // per-unknown relative tolerance (default 1e-6)
	ResidTol  float64 // residual ∞-norm acceptance (default 1e-9 scaled)
	MaxStep   float64 // ∞-norm clamp on each Newton step (0 = no clamp)
	MaxHalve  int     // max residual-based step halvings per iteration (default 8)
	Linear    LinearSolverKind
	PivotTol  float64 // sparse LU threshold-pivoting tolerance (default 0.001)
	GMRESTol  float64 // relative GMRES tolerance of every matrix-free step (default 1e-10)
	GMRESIter int     // default 400
	// Progress, when non-nil, is called at the top of every Newton
	// iteration with the 1-based iteration count and the current residual
	// ∞-norm (NaN on iteration 1 before the first evaluation). Analyses
	// thread the analysis.Request progress hook through here. It must be
	// cheap and must not block.
	Progress func(iter int, residual float64)
}

// NewOptions returns the defaults used across the analyses.
func NewOptions() Options {
	var o Options
	o.Fill()
	return o
}

// Fill populates every unset (zero) numeric field with its documented
// default, leaving fields the caller has set untouched. Analyses use it to
// merge caller-provided options with their defaults non-destructively: a
// caller who only sets Interrupt or Linear keeps those while the tolerances
// default.
func (o *Options) Fill() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.ResidTol <= 0 {
		o.ResidTol = 1e-9
	}
	if o.MaxHalve <= 0 {
		o.MaxHalve = 8
	}
	if o.PivotTol <= 0 {
		o.PivotTol = 0.001
	}
	if o.GMRESTol <= 0 {
		o.GMRESTol = 1e-10
	}
	if o.GMRESIter <= 0 {
		o.GMRESIter = 400
	}
}

// Stats reports how a Newton solve went.
type Stats struct {
	NewtonIters int
	Residual    float64 // final residual ∞-norm
	StepNorm    float64 // final weighted step norm (≤ 1 at convergence)
	Converged   bool
	Halvings    int // total damping halvings
	LinearIters int // total GMRES iterations (matrix-free mode)
	// JacobianEvals counts full (residual + Jacobian) system evaluations:
	// one per Newton iteration, plus one per GMRES rescue.
	JacobianEvals int
	// Factorizations counts pivoting LU factorisations (la.SparseLUFactor
	// calls, whether or not the process-wide symbolic table served them);
	// Refactorizations counts the cheaper numeric-only decompositions that
	// reused the solve's previous factorisation (pattern-reuse hits).
	Factorizations   int
	Refactorizations int
	// FillFactor is the L+U fill of the last direct factorisation relative
	// to the Jacobian's nonzeros (0 in pure GMRES solves).
	FillFactor float64
	// OperatorApplies counts matrix-free Jacobian-vector products;
	// PrecondBuilds counts matrix-free preconditioner constructions;
	// GMRESFallbacks counts GMRES failures that were rescued
	// by a direct solve — a thrashing iterative path shows up here.
	// BatchReuse counts batched line-preconditioner slots refactored
	// against the batch's shared symbolic analysis.
	OperatorApplies int
	PrecondBuilds   int
	GMRESFallbacks  int
	BatchReuse      int
	// AssemblyTime totals the time spent inside System.Eval (residual and
	// Jacobian assembly); FactorTime totals LU factorisation time. Both
	// are zero for time-march steps solved through Workspace.Solve, which
	// does not read the clock; the march's wall time covers them.
	AssemblyTime time.Duration
	FactorTime   time.Duration
	// Trace holds one convergence record per iteration — recorded only when
	// the context carries an obs recorder (see internal/obs), nil otherwise.
	// Its length equals NewtonIters for a solve that ran to a verdict.
	Trace []IterTrace
}

// Add merges o's work into s: it sums the counters and timers, and takes
// o's FillFactor when it is nonzero (the latest factorisation's fill).
// The final-iterate fields (Residual, StepNorm, Converged) and Trace are
// not merged.
func (s *Stats) Add(o Stats) {
	s.NewtonIters += o.NewtonIters
	s.Halvings += o.Halvings
	s.LinearIters += o.LinearIters
	s.JacobianEvals += o.JacobianEvals
	s.Factorizations += o.Factorizations
	s.Refactorizations += o.Refactorizations
	if o.FillFactor > 0 {
		s.FillFactor = o.FillFactor
	}
	s.OperatorApplies += o.OperatorApplies
	s.PrecondBuilds += o.PrecondBuilds
	s.GMRESFallbacks += o.GMRESFallbacks
	s.BatchReuse += o.BatchReuse
	s.AssemblyTime += o.AssemblyTime
	s.FactorTime += o.FactorTime
}

// AddFinal merges o's work into s (see Add) and takes o's final-iterate
// fields, Residual, StepNorm and Converged: o is the solve whose iterate
// s reports.
func (s *Stats) AddFinal(o Stats) {
	s.Add(o)
	s.Residual, s.StepNorm, s.Converged = o.Residual, o.StepNorm, o.Converged
}

// IterTrace is one Newton iteration's convergence record: the per-iteration
// view the summed Stats counters cannot give. A stalled damping loop or a
// thrashing preconditioner is visible here and invisible in the totals.
// Non-finite residuals are sanitised to -1 so records always serialise as
// JSON.
type IterTrace struct {
	// Iter is 1-based. Residual is the trial residual ∞-norm after the
	// damping loop; StepNorm the weighted step norm; Alpha the accepted
	// damping factor.
	Iter     int     `json:"iter"`
	Residual float64 `json:"residual"`
	StepNorm float64 `json:"step_norm,omitempty"`
	Alpha    float64 `json:"alpha"`
	// Halvings and LinearIters are this iteration's deltas of the matching
	// Stats counters.
	Halvings    int `json:"halvings,omitempty"`
	LinearIters int `json:"linear_iters,omitempty"`
	// Factor/Refactor report fresh vs numeric-only factorisation work this
	// iteration; Fallback marks a GMRES failure rescued by a direct solve.
	Factor   bool `json:"factor,omitempty"`
	Refactor bool `json:"refactor,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
	// Accepted is always true: every iteration takes its damped step. The
	// field stays in the trace schema for its readers.
	Accepted bool `json:"accepted"`
}

// finiteOr replaces non-finite v (NaN/±Inf) with alt so trace records stay
// JSON-serialisable.
func finiteOr(v, alt float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return alt
	}
	return v
}

// ErrNewton is wrapped by non-convergence errors.
var ErrNewton = errors.New("solver: Newton did not converge")

// ErrInterrupted is wrapped by errors from solves aborted by context
// cancellation. Callers must not retry on it (unlike ErrNewton, where step
// halving or continuation are reasonable responses). Interrupt errors also
// wrap the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) classify the cause.
var ErrInterrupted = errors.New("solver: solve interrupted")

// Interrupted reports whether err stems from a context-cancellation abort.
func Interrupted(err error) bool { return errors.Is(err, ErrInterrupted) }

// clock times the Newton loop's intervals from one time.Now per solve.
// Each interval boundary is a single monotonic read, shared by the
// intervals on either side of it: the end of a Jacobian evaluation is the
// start of its factorisation. The zero clock is off and reads nothing.
type clock struct {
	on    bool
	start time.Time
	last  time.Duration // the previous boundary, since start
}

// lap returns the time since the previous boundary and makes now the next
// one; an off clock returns 0.
func (c *clock) lap() time.Duration {
	if !c.on {
		return 0
	}
	now := time.Since(c.start)
	d := now - c.last
	c.last = now
	return d
}

// directFactor owns the sparse LU state across iterations so each
// iteration's factorisation can reuse the symbolic analysis when the
// Jacobian pattern is unchanged.
type directFactor struct {
	f *la.SparseLU
}

func (d *directFactor) factor(j *la.CSR, st *Stats, opt Options) error {
	if d.f != nil && d.f.SamePattern(j) {
		if err := d.f.Refactor(j); err == nil {
			st.Refactorizations++
			st.FillFactor = d.f.FillFactor
			return nil
		}
		// Unstable under the frozen pivot order — fall through to a fresh
		// factorisation with pivoting.
	}
	f, err := la.SparseLUFactor(j, opt.PivotTol)
	if err != nil {
		return err
	}
	d.f = f
	st.Factorizations++
	st.FillFactor = f.FillFactor
	return nil
}

// iterRecord builds one convergence record from the counter deltas between
// the top of iteration it (base) and now (st).
func iterRecord(st, base *Stats, it int, nrm, alpha float64) IterTrace {
	return IterTrace{
		Iter:        it + 1,
		Residual:    finiteOr(nrm, -1),
		Alpha:       alpha,
		Halvings:    st.Halvings - base.Halvings,
		LinearIters: st.LinearIters - base.LinearIters,
		Factor:      st.Factorizations > base.Factorizations,
		Refactor:    st.Refactorizations > base.Refactorizations,
		Fallback:    st.GMRESFallbacks > base.GMRESFallbacks,
		Accepted:    true,
	}
}

// countingOp wraps an Operator, counting its applications.
type countingOp struct {
	op la.Operator
	n  int
}

func (c *countingOp) Apply(x, y []float64) { c.n++; c.op.Apply(x, y) }
func (c *countingOp) Size() int            { return c.op.Size() }

// Workspace carries the Newton loop's LU factorisation across consecutive
// solves. A time march solves one same-pattern system per step; solving
// every step through one Workspace starts each step with a numeric-only
// Refactor in the previous step's pivot order instead of a full symbolic
// factorisation, and falls back to a fresh pivoted factorisation when that
// order turns unstable or the pattern changes. The zero value is ready to
// use; a Workspace must not serve two solves at once. It also keeps the
// loop's vectors and its operator counter, so a warm Workspace's solve
// allocates nothing.
//
// A circuit march step is too small to time: on a few unknowns the clock
// reads around each assembly and factorisation cost about as much as the
// work they time. Solve therefore leaves Stats.AssemblyTime and
// Stats.FactorTime zero, and the march's own wall time accounts for them.
// A march whose steps are large enough to time (the envelope's fast
// lines) solves through SolveTimed, as the one-shot Solve does.
type Workspace struct {
	direct directFactor
	vec    []float64 // the loop's five n-vectors: dx, xTrial, neg, r, rNew
	// cop is the matrix-free Jacobian operator with its application
	// counter. It lives here, not in the solve's Stats, so that handing
	// it to GMRES boxes a pointer into the Workspace and allocates nothing.
	cop countingOp
}

// Solve runs damped Newton from x (updated in place to the solution); it is
// a one-shot Workspace's solve, and it also times the assembly and
// factorisation intervals into Stats.AssemblyTime and Stats.FactorTime.
func Solve(ctx context.Context, sys System, x []float64, opt Options) (Stats, error) {
	return new(Workspace).SolveTimed(ctx, sys, x, opt)
}

// SolveTimed is Solve through w with the interval clock on: it times the
// assembly and factorisation intervals into Stats.AssemblyTime and
// Stats.FactorTime.
func (w *Workspace) SolveTimed(ctx context.Context, sys System, x []float64, opt Options) (Stats, error) {
	return w.solveSpan(ctx, sys, x, opt, true)
}

// Solve runs damped Newton from x (updated in place to the solution),
// starting from the factorisation the previous solve through w left behind.
// It reads no clock: Stats.AssemblyTime and Stats.FactorTime stay zero.
//
// A converged solve's last System.Eval was a residual-only evaluation at
// the x it returns: the accepted damping trial. A time march relies on
// this to take the accepted point's charges and sources from the step
// system's last evaluation instead of evaluating the circuit again.
// Cancelling ctx aborts the iteration cooperatively: the cancellation is
// polled before every iteration (including the first, so an already-canceled
// context returns before any assembly or factorisation work) and the
// returned error wraps both ErrInterrupted and ctx.Err().
//
// When ctx carries an obs recorder the solve runs under a "newton.solve"
// span and records a per-iteration convergence trace into Stats.Trace (also
// attached to the span as its data payload); without one the instrumentation
// is a single context lookup — no allocation, no timestamps.
func (w *Workspace) Solve(ctx context.Context, sys System, x []float64, opt Options) (Stats, error) {
	return w.solveSpan(ctx, sys, x, opt, false)
}

// solveSpan runs solve under the "newton.solve" span; timed turns the
// interval clock on.
func (w *Workspace) solveSpan(ctx context.Context, sys System, x []float64, opt Options, timed bool) (Stats, error) {
	ctx, span := obs.Start(ctx, "newton.solve")
	if span == nil {
		return w.solve(ctx, sys, x, opt, false, timed)
	}
	st, err := w.solve(ctx, sys, x, opt, true, timed)
	span.SetInt("unknowns", int64(sys.Size()))
	span.SetStr("linear", opt.Linear.String())
	span.SetInt("iterations", int64(st.NewtonIters))
	span.SetInt("halvings", int64(st.Halvings))
	span.SetInt("linear_iters", int64(st.LinearIters))
	span.SetFloat("residual", finiteOr(st.Residual, -1))
	var conv int64
	if st.Converged {
		conv = 1
	}
	span.SetInt("converged", conv)
	if len(st.Trace) > 0 {
		span.SetData(st.Trace)
	}
	span.End()
	return st, err
}

// solve is the Newton loop proper; trace turns the per-iteration convergence
// records on (the caller owns the enclosing span), and timed the interval
// clock.
//
// On the matrix-free path GMRES solves every Newton step to GMRESTol, so
// the loop takes the direct path's steps and its convergence test needs no
// confirming step. An iteration whose GMRES solve or preconditioner build
// fails solves its step through the assembled Jacobian instead, counted in
// Stats.GMRESFallbacks.
//
//mpde:hotpath
func (w *Workspace) solve(ctx context.Context, sys System, x []float64, opt Options, trace, timed bool) (Stats, error) {
	opt.Fill()
	if opt.Linear != DirectSparse && opt.Linear != MatrixFree { //mpde:coldpath an unknown kind rejects the solve up front
		return Stats{}, fmt.Errorf("solver: unknown linear solver kind %d", opt.Linear)
	}
	n := sys.Size()
	if len(x) != n { //mpde:coldpath size mismatch rejects the solve up front
		return Stats{}, fmt.Errorf("solver: initial guess size %d, want %d", len(x), n)
	}
	var mfs MatrixFreeSystem
	if opt.Linear == MatrixFree {
		var ok bool
		if mfs, ok = sys.(MatrixFreeSystem); !ok {
			return Stats{}, errors.New("solver: Options.Linear=MatrixFree requires a system implementing MatrixFreeSystem")
		}
	}
	// A nil-Done context (context.Background()) is never polled.
	done := ctx.Done()
	var st Stats
	var gmres la.GMRESSolver
	if len(w.vec) != 5*n {
		w.vec = make([]float64, 5*n) //mpde:alloc-ok sized once per workspace, before the loop
	}
	dx, xTrial, neg := w.vec[:n], w.vec[n:2*n], w.vec[2*n:3*n]
	r, rNew := w.vec[3*n:4*n], w.vec[4*n:]

	var clk clock
	if timed {
		clk = clock{on: true, start: time.Now()}
	}
	//mpde:alloc-ok one closure per solve, shared by every iteration
	evalInto := func(xx, dst []float64, jac bool) (*la.CSR, error) {
		clk.lap() // the evaluation starts
		rr, j, err := sys.Eval(xx, jac)
		st.AssemblyTime += clk.lap()
		if err != nil {
			return nil, err
		}
		copy(dst, rr)
		if jac {
			st.JacobianEvals++
			if j == nil {
				return nil, errors.New("solver: system returned no Jacobian")
			}
		}
		return j, nil
	}

	// rNorm and residCap are established by iteration 0's Jacobian
	// evaluation rather than a separate pre-loop residual pass — one full
	// assembly saved per Solve, which the envelope march pays once per slow
	// timestep.
	rNorm, residCap := math.NaN(), 0.0

	direct := &w.direct
	// The matrix-free path's preconditioner for this iterate, and the error
	// that failed its build.
	var prec la.Preconditioner
	var perr error
	// itBase snapshots the cumulative counters at the top of each iteration
	// so trace records carry per-iteration deltas.
	var itBase Stats
	for it := 0; it < opt.MaxIter; it++ {
		if done != nil {
			select {
			case <-done: //mpde:coldpath cancellation exits the solve
				return st, fmt.Errorf("%w after %d iterations: %w", ErrInterrupted, st.NewtonIters, ctx.Err())
			default:
			}
		}
		if trace {
			itBase = st
			itBase.Trace = nil
		}
		if opt.Progress != nil {
			opt.Progress(it+1, rNorm)
		}
		st.NewtonIters = it + 1
		if opt.Linear == MatrixFree {
			clk.lap() // the linearisation starts
			rr, op, err := mfs.Linearize(x)
			st.AssemblyTime += clk.lap()
			if err != nil {
				return st, err
			}
			st.JacobianEvals++
			copy(r, rr)
			w.cop.op = op
			if prec, perr = mfs.BuildPreconditioner(); perr == nil {
				st.PrecondBuilds++
			}
			st.FactorTime += clk.lap()
		} else {
			j, err := evalInto(x, r, true)
			if err != nil {
				return st, err
			}
			err = direct.factor(j, &st, opt)
			st.FactorTime += clk.lap()
			if err != nil { //mpde:coldpath a failed factorisation aborts the solve
				return st, fmt.Errorf("solver: Jacobian factorisation failed at iter %d: %w", it, err)
			}
		}
		if it == 0 {
			rNorm = la.NormInf(r)
			// Residual acceptance is scaled by the starting residual so the
			// same tolerances work for milliamp-level MNA residuals and
			// unit-level normalised systems alike.
			residCap = opt.ResidTol * math.Max(1, rNorm)
		}
		// Solve J·dx = −r.
		for i := range neg {
			neg[i] = -r[i]
		}
		if opt.Linear == MatrixFree {
			// A failed preconditioner build skips GMRES: unpreconditioned,
			// it would run to its iteration cap before the same rescue.
			gerr := perr
			if gerr == nil {
				la.Fill(dx, 0)
				w.cop.n = 0
				var res la.GMRESResult
				res, gerr = gmres.Solve(&w.cop, neg, dx, la.GMRESOptions{
					Tol: opt.GMRESTol, MaxIter: opt.GMRESIter, M: prec})
				st.OperatorApplies += w.cop.n
				st.LinearIters += res.Iterations
			}
			if gerr != nil {
				// Assemble the true Jacobian once and solve directly rather
				// than failing Newton.
				st.GMRESFallbacks++
				jj, err := evalInto(x, r, true)
				if err != nil {
					return st, err
				}
				err = direct.factor(jj, &st, opt)
				st.FactorTime += clk.lap()
				if err != nil {
					return st, fmt.Errorf("solver: linear solve failed: %w", err)
				}
				direct.f.Solve(neg, dx)
			}
		} else {
			direct.f.Solve(neg, dx)
		}
		// A non-finite step (an overflowing solve on finite r and J) fails
		// here: no damping can make a trial point out of it. The same norm
		// serves the optional ∞-norm clamp (device-voltage limiting in the
		// large).
		m := la.NormInf(dx)
		if math.IsNaN(m) || math.IsInf(m, 0) { //mpde:coldpath a non-finite step fails the solve
			st.Residual = rNorm
			return st, fmt.Errorf("%w: step %v at iteration %d", ErrNewton, m, it+1)
		}
		if opt.MaxStep > 0 && m > opt.MaxStep {
			la.Scal(opt.MaxStep/m, dx)
		}
		// Damped update: halve until the residual stops increasing badly.
		// Trials evaluate the residual only — the Jacobian is assembled once
		// per iteration at the accepted iterate, never at discarded trials.
		alpha := 1.0
		var nrm float64
		for h := 0; ; h++ {
			for i := range xTrial {
				xTrial[i] = x[i] + alpha*dx[i]
			}
			if _, err := evalInto(xTrial, rNew, false); err != nil {
				return st, err
			}
			nrm = la.NormInf(rNew)
			if nrm <= 2*rNorm || h >= opt.MaxHalve || math.IsNaN(rNorm) {
				if math.IsNaN(nrm) && h < opt.MaxHalve {
					alpha /= 2
					st.Halvings++
					continue
				}
				break
			}
			alpha /= 2
			st.Halvings++
		}
		if math.IsNaN(nrm) || math.IsInf(nrm, 0) { //mpde:coldpath a residual still non-finite after every halving fails the solve
			st.Residual = nrm
			return st, fmt.Errorf("%w: residual %v at iteration %d after damping", ErrNewton, nrm, it+1)
		}
		rNorm = nrm
		copy(x, xTrial)
		copy(r, rNew)

		// Convergence: weighted step norm AND residual check.
		for i := range xTrial {
			xTrial[i] = alpha * dx[i] // reuse as the scaled-step scratch
		}
		st.StepNorm = la.WeightedMaxNorm(xTrial, x, opt.AbsTol, opt.RelTol)
		st.Residual = rNorm
		if trace { //mpde:coldpath trace records accumulate only under tracing
			rec := iterRecord(&st, &itBase, it, nrm, alpha)
			rec.StepNorm = finiteOr(st.StepNorm, -1)
			st.Trace = append(st.Trace, rec)
		}
		// Primary acceptance: small step and small residual. Secondary:
		// a full (undamped) Newton step that is essentially zero means the
		// iteration is at numerical stationarity — the residual has hit its
		// floating-point floor (common when charge differences are divided
		// by very small time steps) and further iterations cannot help.
		// Tertiary: a residual many orders below tolerance is a solution
		// even when the step norm is noisy (ill-conditioned Jacobians
		// amplify round-off into wandering but physically irrelevant
		// updates).
		if (st.StepNorm <= 1 && rNorm <= residCap) ||
			(st.StepNorm <= 0.01 && alpha == 1) ||
			rNorm <= 1e-6*residCap {
			st.Converged = true
			return st, nil
		}
	}
	st.Residual = rNorm
	//mpde:coldpath non-convergence is the failure exit
	return st, fmt.Errorf("%w after %d iterations (residual %.3e, step %.3e)",
		ErrNewton, st.NewtonIters, st.Residual, st.StepNorm)
}
