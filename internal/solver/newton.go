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
// the residual at x and an operator applying J(x)·v (typically by directional
// residual differencing), valid until the next Linearize call.
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
	Damping   bool    // enable residual-based step halving (default true via NewOptions)
	MaxHalve  int     // max step halvings per iteration (default 8)
	Linear    LinearSolverKind
	PivotTol  float64 // sparse LU threshold-pivoting tolerance (default 0.001)
	GMRESTol  float64 // default 1e-10
	GMRESIter int     // default 400
	// JacobianRefresh is the modified-Newton policy: the Jacobian is
	// re-evaluated and re-factorised only every JacobianRefresh-th
	// iteration, with the stale factorisation reused in between (and sparse
	// LU refactorised numerically into the same symbolic analysis when the
	// pattern allows). A damping failure on a stale Jacobian forces an
	// immediate refresh. 0 or 1 refreshes every iteration — classic Newton,
	// the default.
	JacobianRefresh int
	// Progress, when non-nil, is called at the top of every Newton
	// iteration with the 1-based iteration count and the current residual
	// ∞-norm (NaN on iteration 1 before the first evaluation). Analyses
	// thread the analysis.Request progress hook through here. It must be
	// cheap and must not block.
	Progress func(iter int, residual float64)
	// ShareLU, when non-nil, lets same-pattern solves share one symbolic LU
	// analysis: the first full factorisation is published to the group and
	// later solves start from a numeric-only refactorisation of the shared
	// analysis instead of their own symbolic phase. Sweep warm-start groups
	// set this.
	ShareLU *la.LUShare
}

// NewOptions returns the defaults used across the analyses.
func NewOptions() Options {
	var o Options
	o.Damping = true
	o.Fill()
	return o
}

// Fill populates every unset (zero) numeric field with its documented
// default, leaving fields the caller has set untouched. Analyses use it to
// merge caller-provided options with their defaults non-destructively: a
// caller who only sets Interrupt or Linear keeps those while the tolerances
// default. Note Damping cannot be defaulted here (false is a meaningful
// setting); NewOptions enables it.
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
	if o.JacobianRefresh <= 0 {
		o.JacobianRefresh = 1
	}
}

// Stats reports how a Newton solve went.
type Stats struct {
	Iterations  int
	Residual    float64 // final residual ∞-norm
	StepNorm    float64 // final weighted step norm (≤ 1 at convergence)
	Converged   bool
	Halvings    int // total damping halvings
	LinearIters int // total GMRES iterations (matrix-free mode)
	// JacobianEvals counts full (residual + Jacobian) system evaluations;
	// with JacobianRefresh > 1 it runs below Iterations.
	JacobianEvals int
	// Factorizations counts full symbolic+numeric LU factorisations;
	// Refactorizations counts the cheaper numeric-only decompositions that
	// reused a previous symbolic analysis (pattern-reuse hits).
	Factorizations   int
	Refactorizations int
	// FillFactor is the L+U fill of the last direct factorisation relative
	// to the Jacobian's nonzeros (0 in pure GMRES solves).
	FillFactor float64
	// OperatorApplies counts matrix-free Jacobian-vector products;
	// PrecondBuilds counts matrix-free preconditioner constructions;
	// GMRESFallbacks counts GMRES failures that were rescued
	// by a direct solve — a thrashing iterative path shows up here.
	// BatchReuse counts factorisations that started from a shared symbolic
	// analysis published by another solve (Options.ShareLU hits).
	OperatorApplies int
	PrecondBuilds   int
	GMRESFallbacks  int
	BatchReuse      int
	// AssemblyTime totals the time spent inside System.Eval (residual and
	// Jacobian assembly); FactorTime totals LU factorisation time.
	AssemblyTime time.Duration
	FactorTime   time.Duration
	// Trace holds one convergence record per iteration — recorded only when
	// the context carries an obs recorder (see internal/obs), nil otherwise.
	// Its length equals Iterations for a solve that ran to a verdict.
	Trace []IterTrace
}

// IterTrace is one Newton iteration's convergence record: the per-iteration
// view the summed Stats counters cannot give. A stalled damping loop, a
// thrashing preconditioner, or a chord iteration bouncing off a stale
// Jacobian is visible here and invisible in the totals. Non-finite residuals
// are sanitised to -1 so records always serialise as JSON.
type IterTrace struct {
	// Iter is 1-based. Residual is the trial residual ∞-norm after the
	// damping loop; StepNorm the weighted step norm (0 on rejected
	// iterations, where no step was taken); Alpha the accepted damping
	// factor.
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
	// Accepted is false when damping exhausted on a stale Jacobian and the
	// trial was rejected in favour of an immediate refresh.
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

// interruptShim derives the solver's internal cooperative-cancellation poll
// from ctx.Done(). A nil-Done context (context.Background()) polls as never
// interrupted without the select.
func interruptShim(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// directFactor owns the sparse LU state across iterations so a refresh can
// reuse the symbolic analysis when the Jacobian pattern is unchanged.
type directFactor struct {
	f *la.SparseLU
}

func (d *directFactor) factor(j *la.CSR, st *Stats, opt Options) error {
	// First factorisation of this solve: try the warm-start group's shared
	// symbolic analysis before paying a symbolic phase of our own.
	if d.f == nil && opt.ShareLU != nil {
		if f := opt.ShareLU.Acquire(j); f != nil {
			if err := f.Refactor(j); err == nil {
				d.f = f
				st.Refactorizations++
				st.BatchReuse++
				st.FillFactor = f.FillFactor
				return nil
			}
		}
	}
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
	opt.ShareLU.Publish(f)
	return nil
}

// iterRecord builds one convergence record from the counter deltas between
// the top of iteration it (base) and now (st).
func iterRecord(st, base *Stats, it int, nrm, alpha float64, accepted bool) IterTrace {
	return IterTrace{
		Iter:        it + 1,
		Residual:    finiteOr(nrm, -1),
		Alpha:       alpha,
		Halvings:    st.Halvings - base.Halvings,
		LinearIters: st.LinearIters - base.LinearIters,
		Factor:      st.Factorizations > base.Factorizations,
		Refactor:    st.Refactorizations > base.Refactorizations,
		Fallback:    st.GMRESFallbacks > base.GMRESFallbacks,
		Accepted:    accepted,
	}
}

// countingOp wraps an Operator, counting applications into a Stats field.
type countingOp struct {
	op la.Operator
	n  *int
}

func (c countingOp) Apply(x, y []float64) { *c.n++; c.op.Apply(x, y) }
func (c countingOp) Size() int            { return c.op.Size() }

// Solve runs damped Newton from x (updated in place to the solution).
// Cancelling ctx aborts the iteration cooperatively: the cancellation is
// polled before every iteration (including the first, so an already-canceled
// context returns before any assembly or factorisation work) and the
// returned error wraps both ErrInterrupted and ctx.Err().
//
// When ctx carries an obs recorder the solve runs under a "newton.solve"
// span and records a per-iteration convergence trace into Stats.Trace (also
// attached to the span as its data payload); without one the instrumentation
// is a single context lookup — no allocation, no timestamps.
func Solve(ctx context.Context, sys System, x []float64, opt Options) (Stats, error) {
	ctx, span := obs.Start(ctx, "newton.solve")
	if span == nil {
		return solve(ctx, sys, x, opt, false)
	}
	st, err := solve(ctx, sys, x, opt, true)
	span.SetInt("unknowns", int64(sys.Size()))
	span.SetStr("linear", opt.Linear.String())
	span.SetInt("iterations", int64(st.Iterations))
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
// records on (the caller owns the enclosing span).
//
//mpde:hotpath
func solve(ctx context.Context, sys System, x []float64, opt Options, trace bool) (Stats, error) {
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
	interrupt := interruptShim(ctx)
	var st Stats
	var gmres la.GMRESSolver
	dx := make([]float64, n)     //mpde:alloc-ok per-solve setup, before the loop
	xTrial := make([]float64, n) //mpde:alloc-ok per-solve setup, before the loop
	neg := make([]float64, n)    //mpde:alloc-ok per-solve setup, before the loop
	r := make([]float64, n)      //mpde:alloc-ok per-solve setup, before the loop
	rNew := make([]float64, n)   //mpde:alloc-ok per-solve setup, before the loop

	//mpde:alloc-ok one closure per solve, shared by every iteration
	evalInto := func(xx, dst []float64, jac bool) (*la.CSR, error) {
		t0 := time.Now()
		rr, j, err := sys.Eval(xx, jac)
		st.AssemblyTime += time.Since(t0)
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
	// evaluation (jacAge starts negative, so it always runs) rather than a
	// separate pre-loop residual pass — one full assembly saved per Solve,
	// which the envelope march pays once per slow timestep.
	rNorm, residCap := math.NaN(), 0.0

	var direct directFactor
	var op la.Operator  // matrix-free Jacobian operator at the refresh point
	var cop la.Operator // op wrapped with the OperatorApplies counter; boxed
	// once per Jacobian refresh rather than re-boxed every iteration
	var prec la.Preconditioner
	// itBase snapshots the cumulative counters at the top of each iteration
	// so trace records carry per-iteration deltas.
	var itBase Stats
	jacAge := -1 // -1: no Jacobian factored yet
	for it := 0; it < opt.MaxIter; it++ {
		if interrupt != nil && interrupt() { //mpde:coldpath cancellation exits the solve
			return st, fmt.Errorf("%w after %d iterations: %w", ErrInterrupted, st.Iterations, ctx.Err())
		}
		if trace {
			itBase = st
			itBase.Trace = nil
		}
		if opt.Progress != nil {
			opt.Progress(it+1, rNorm)
		}
		st.Iterations = it + 1
		if jacAge < 0 || jacAge >= opt.JacobianRefresh {
			if opt.Linear == MatrixFree {
				t0 := time.Now()
				rr, oo, err := mfs.Linearize(x)
				st.AssemblyTime += time.Since(t0)
				if err != nil {
					return st, err
				}
				st.JacobianEvals++
				copy(r, rr)
				op = oo
				cop = countingOp{op, &st.OperatorApplies} //mpde:alloc-ok boxed once per refresh
				t0 = time.Now()
				if p, perr := mfs.BuildPreconditioner(); perr == nil {
					prec = p
					st.PrecondBuilds++
				} else {
					prec = nil
				}
				st.FactorTime += time.Since(t0)
			} else {
				j, err := evalInto(x, r, true)
				if err != nil {
					return st, err
				}
				t0 := time.Now()
				if err := direct.factor(j, &st, opt); err != nil {
					st.FactorTime += time.Since(t0)
					//mpde:coldpath a failed factorisation aborts the solve
					return st, fmt.Errorf("solver: Jacobian factorisation failed at iter %d: %w", it, err)
				}
				st.FactorTime += time.Since(t0)
			}
			if it == 0 {
				rNorm = la.NormInf(r)
				// Residual acceptance is scaled by the starting residual so
				// the same tolerances work for milliamp-level MNA residuals
				// and unit-level normalised systems alike.
				residCap = opt.ResidTol * math.Max(1, rNorm)
			}
			jacAge = 0
		}
		// Solve J·dx = −r.
		for i := range neg {
			neg[i] = -r[i]
		}
		if opt.Linear == MatrixFree {
			la.Fill(dx, 0)
			res, gerr := gmres.Solve(cop, neg, dx, la.GMRESOptions{
				Tol: opt.GMRESTol, MaxIter: opt.GMRESIter, M: prec})
			st.LinearIters += res.Iterations
			if gerr != nil {
				// Assemble the true Jacobian once and solve directly rather
				// than failing Newton.
				st.GMRESFallbacks++
				jj, err := evalInto(x, r, true)
				if err != nil {
					return st, err
				}
				t0 := time.Now()
				err = direct.factor(jj, &st, opt)
				st.FactorTime += time.Since(t0)
				if err != nil {
					return st, fmt.Errorf("solver: linear solve failed: %w", err)
				}
				direct.f.Solve(neg, dx)
			}
		} else {
			direct.f.Solve(neg, dx)
		}
		// Optional ∞-norm clamp (device-voltage limiting in the large).
		if opt.MaxStep > 0 {
			if m := la.NormInf(dx); m > opt.MaxStep {
				la.Scal(opt.MaxStep/m, dx)
			}
		}
		// Damped update: halve until the residual stops increasing badly.
		// Trials evaluate the residual only — the Jacobian is assembled once
		// per refresh at the accepted iterate, never at discarded trials.
		alpha := 1.0
		accepted := true
		var nrm float64
		for h := 0; ; h++ {
			for i := range xTrial {
				xTrial[i] = x[i] + alpha*dx[i]
			}
			if _, err := evalInto(xTrial, rNew, false); err != nil {
				return st, err
			}
			nrm = la.NormInf(rNew)
			if !opt.Damping || nrm <= 2*rNorm || h >= opt.MaxHalve || math.IsNaN(rNorm) {
				if math.IsNaN(nrm) && h < opt.MaxHalve {
					alpha /= 2
					st.Halvings++
					continue
				}
				// Damping exhausted on a stale Jacobian: reject the trial and
				// refresh instead — the chord direction was the problem.
				if opt.Damping && jacAge > 0 && h >= opt.MaxHalve && nrm > 2*rNorm && !math.IsNaN(rNorm) {
					accepted = false
				}
				break
			}
			alpha /= 2
			st.Halvings++
		}
		if !accepted {
			if trace { //mpde:coldpath trace records accumulate only under tracing
				st.Trace = append(st.Trace, iterRecord(&st, &itBase, it, nrm, alpha, false))
			}
			jacAge = opt.JacobianRefresh // force refresh next iteration
			continue
		}
		rNorm = nrm
		copy(x, xTrial)
		copy(r, rNew)
		jacAge++

		// Convergence: weighted step norm AND residual check.
		for i := range xTrial {
			xTrial[i] = alpha * dx[i] // reuse as the scaled-step scratch
		}
		st.StepNorm = la.WeightedMaxNorm(xTrial, x, opt.AbsTol, opt.RelTol)
		st.Residual = rNorm
		if trace { //mpde:coldpath trace records accumulate only under tracing
			rec := iterRecord(&st, &itBase, it, nrm, alpha, true)
			rec.StepNorm = finiteOr(st.StepNorm, -1)
			st.Trace = append(st.Trace, rec)
		}
		// Primary acceptance: small step and small residual. Secondary:
		// a full (undamped) Newton step that is essentially zero means the
		// iteration is at numerical stationarity — the residual has hit its
		// floating-point floor (common when charge differences are divided
		// by very small time steps) and further iterations cannot help.
		if st.StepNorm <= 1 && rNorm <= residCap {
			st.Converged = true
			return st, nil
		}
		if st.StepNorm <= 0.01 && alpha == 1 {
			st.Converged = true
			return st, nil
		}
		// A residual many orders below tolerance is a solution even when
		// the step norm is noisy (ill-conditioned Jacobians amplify
		// round-off into wandering but physically irrelevant updates).
		if rNorm <= 1e-6*residCap {
			st.Converged = true
			return st, nil
		}
	}
	st.Residual = rNorm
	//mpde:coldpath non-convergence is the failure exit
	return st, fmt.Errorf("%w after %d iterations (residual %.3e, step %.3e)",
		ErrNewton, st.Iterations, st.Residual, st.StepNorm)
}
