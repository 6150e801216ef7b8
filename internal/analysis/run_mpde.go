package analysis

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/solver"
)

// QPSSParams configures the paper's sheared-grid quasi-periodic steady
// state ("qpss").
type QPSSParams struct {
	// N1, N2 are the grid sizes (defaults core.DefaultN1 × core.DefaultN2,
	// the paper's grid).
	N1, N2 int
	// Shear defines the difference-frequency time-scale map (required).
	Shear core.Shear
	// DiffT1, DiffT2 select the finite-difference orders (zero → first).
	DiffT1, DiffT2 core.DiffOrder
	// NoContinuation disables the source-stepping fallback (the paper's
	// robust path is on by default).
	NoContinuation bool
	// AssemblyWorkers bounds intra-solve assembly parallelism (0 = the
	// assembler default).
	AssemblyWorkers int
	// Linear selects the Newton linear solver: "direct" (sparse LU, the
	// default) or "matfree" (Jacobian-free GMRES with the batched
	// block-line preconditioner).
	Linear string
	// Accuracy, when enabled, replaces the fixed grid with automatic sizing:
	// the solve starts coarse (N1/N2 when set, the adaptive defaults
	// otherwise) and refines until the spectral tail passes RelTol (see
	// core.AdaptiveQPSS).
	Accuracy Accuracy
}

// EnvelopeParams configures slow-time envelope following ("envelope").
type EnvelopeParams struct {
	// N1 is the fast-axis grid size (default 40).
	N1 int
	// Shear defines the time-scale map (required).
	Shear core.Shear
	// T2Stop is the slow-time horizon (default one difference period).
	T2Stop float64
	// StepT2 is the slow step (default Td/30); the initial step under LTE
	// control.
	StepT2 float64
	// Accuracy, when enabled, turns on the LTE step controller: steps are
	// rejected and retried smaller when the estimated local truncation
	// error exceeds the tolerances, and grow when it allows.
	Accuracy Accuracy
}

func runQPSS(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[QPSSParams](req, "qpss")
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		N1: p.N1, N2: p.N2, Shear: p.Shear,
		DiffT1: p.DiffT1, DiffT2: p.DiffT2,
		Newton: req.Newton, NoContinuation: p.NoContinuation,
		AssemblyWorkers: p.AssemblyWorkers,
	}
	if p.Linear != "" {
		kind, err := solver.ParseLinearSolver(p.Linear)
		if err != nil {
			return nil, err
		}
		opt.Newton.Linear = kind
	}
	req.Circuit.Finalize()
	if p.Accuracy.Enabled() {
		// Tolerance-driven sizing: the grid is the solver's choice, so a
		// fixed-shape seed cannot be assumed compatible — each round
		// starts from its own envelope march instead.
		sol, err := core.AdaptiveQPSS(ctx, req.Circuit, opt, core.AccuracyOptions{
			RelTol: p.Accuracy.RelTol, AbsTol: p.Accuracy.AbsTol,
		})
		if err != nil {
			return nil, err
		}
		return &qpssResult{sol: sol}, nil
	}
	n1, n2 := orDefault(p.N1, core.DefaultN1), orDefault(p.N2, core.DefaultN2)
	if len(req.Seed) == n1*n2*req.Circuit.Size() {
		// Advisory warm start: a stale guess must not strand the solve —
		// QPSS still falls back to source stepping on failure.
		opt.X0 = req.Seed
	}
	sol, err := core.QPSS(ctx, req.Circuit, opt)
	if err != nil {
		return nil, err
	}
	return &qpssResult{sol: sol}, nil
}

type qpssResult struct{ sol *core.Solution }

func (r *qpssResult) Method() string { return "qpss" }
func (r *qpssResult) Raw() any       { return r.sol }
func (r *qpssResult) Seed() []float64 {
	return r.sol.X
}

func (r *qpssResult) Stats() Stats {
	s := r.sol.Stats
	st := fromSolver(s.Stats)
	st.Unknowns = s.Unknowns
	st.GridPoints = s.GridPoints
	st.UsedContinuation = s.UsedContinuation
	st.PatternBuilds = s.PatternBuilds
	st.PatternReuse = s.PatternReuse
	st.Refinements = s.Refinements
	st.FinalN1 = r.sol.N1
	st.FinalN2 = r.sol.N2
	return st
}

// baseband extracts the probe's slow-time record: differential when the
// probe has a minus leg, the t1-mean otherwise.
func (r *qpssResult) baseband(p Probe) []float64 {
	if p.M >= 0 {
		return r.sol.DifferentialBaseband(p.P, p.M)
	}
	return r.sol.BasebandMean(p.P)
}

func (r *qpssResult) Waveform(p Probe) (Waveform, bool) {
	return Waveform{Label: "t2", T: r.sol.T2Axis(), V: r.baseband(p)}, true
}

func (r *qpssResult) Spectrum(p Probe, top int) ([]Line, bool) {
	if top <= 0 {
		return nil, true
	}
	return mixLines(r.sol.SpectrumDiff(p.P, p.M), top), true
}

// mixLines lists the top dominant mixes of a grid spectrum, for QPSS and HB
// alike.
func mixLines(gs core.GridSpectrum, top int) []Line {
	mixes := gs.DominantMixes(top)
	out := make([]Line, len(mixes))
	for i, m := range mixes {
		out[i] = Line{K1: m.K1, K2: m.K2, Freq: gs.MixFreq(m.K1, m.K2), Amp: m.Amp}
	}
	return out
}

func (r *qpssResult) Measure(p Probe, rfAmp float64) Measurement {
	bb := r.baseband(p)
	sh := r.sol.Shear
	return measureRecord(bb, sh.Td()/float64(len(bb)), math.Abs(sh.Fd()), rfAmp)
}

func runEnvelope(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[EnvelopeParams](req, "envelope")
	if err != nil {
		return nil, err
	}
	opt := core.EnvelopeOptions{
		N1: p.N1, Shear: p.Shear,
		T2Stop: p.T2Stop, StepT2: p.StepT2,
		RelTol: p.Accuracy.RelTol, AbsTol: p.Accuracy.AbsTol,
		Newton: req.Newton,
	}
	req.Circuit.Finalize()
	if len(req.Seed) == orDefault(p.N1, core.DefaultN1)*req.Circuit.Size() {
		opt.X0Line = req.Seed
	}
	env, err := core.EnvelopeFollow(ctx, req.Circuit, opt)
	if err != nil {
		return nil, err
	}
	return &envelopeResult{env: env, n: req.Circuit.Size()}, nil
}

type envelopeResult struct {
	env *core.EnvelopeResult
	n   int
}

func (r *envelopeResult) Method() string  { return "envelope" }
func (r *envelopeResult) Raw() any        { return r.env }
func (r *envelopeResult) Seed() []float64 { return nil }

func (r *envelopeResult) Stats() Stats {
	st := fromSolver(r.env.Stats)
	st.TimeSteps = len(r.env.T2)
	st.Unknowns = r.env.N1 * r.n
	st.PatternBuilds = r.env.PatternBuilds
	st.PatternReuse = r.env.PatternReuse
	st.AcceptedSteps = r.env.AcceptedSteps
	st.RejectedSteps = r.env.RejectedSteps
	st.FinalN1 = r.env.N1
	return st
}

func (r *envelopeResult) baseband(p Probe) []float64 {
	bb := r.env.Baseband(p.P)
	if p.M >= 0 {
		bm := r.env.Baseband(p.M)
		for i := range bb {
			bb[i] -= bm[i]
		}
	}
	return bb
}

func (r *envelopeResult) Waveform(p Probe) (Waveform, bool) {
	return Waveform{Label: "t2", T: r.env.T2, V: r.baseband(p)}, true
}

func (r *envelopeResult) Spectrum(Probe, int) ([]Line, bool) { return nil, false }

func (r *envelopeResult) Measure(p Probe, rfAmp float64) Measurement {
	// The envelope is a slow-time transient toward the quasi-periodic
	// orbit, not a settled period — report swing only, no gain.
	return Measurement{Swing: swing(r.baseband(p))}
}

func init() {
	Register(Descriptor{
		Name:         "qpss",
		Doc:          "quasi-periodic steady state on the sheared difference-frequency grid (the paper's method)",
		Run:          runQPSS,
		WireParams:   func() any { return new(QPSSParams) },
		UsesGridAxes: true,
		Seedable:     true,
		NumKeys:      withAccuracyKeys("n1", "n2", "top", "order"),
		StrKeys:      []string{"linear"},
		SweepParams: func(bi BuildInput) (any, error) {
			return QPSSParams{
				N1: bi.Point.N1, N2: bi.Point.N2, Shear: bi.Target.Shear,
				DiffT1: bi.Tune.DiffT1, DiffT2: bi.Tune.DiffT2,
				AssemblyWorkers: bi.Tune.AssemblyWorkers,
				Linear:          bi.Tune.Linear,
				Accuracy:        bi.Tune.Accuracy,
			}, nil
		},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			p := QPSSParams{
				N1: in.Int("n1", 0), N2: in.Int("n2", 0), Shear: in.Shear,
				Linear:   in.Text("linear", ""),
				Accuracy: accuracyFrom(in),
			}
			if in.Int("order", 1) >= 2 {
				p.DiffT1, p.DiffT2 = core.Order2, core.Order2
			}
			return p, nil
		},
	})
	Register(Descriptor{
		Name:         "envelope",
		Doc:          "slow-time MPDE envelope following (start-up transients of the baseband)",
		Run:          runEnvelope,
		WireParams:   func() any { return new(EnvelopeParams) },
		UsesGridAxes: true,
		NumKeys:      withAccuracyKeys("n1", "n2", "t2stop"),
		SweepParams: func(bi BuildInput) (any, error) {
			td := bi.Target.Shear.Td()
			return EnvelopeParams{
				N1: bi.Point.N1, Shear: bi.Target.Shear,
				T2Stop: td, StepT2: td / float64(orDefault(bi.Point.N2, core.DefaultN2)),
				Accuracy: bi.Tune.Accuracy,
			}, nil
		},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			if err := in.Shear.Validate(); err != nil {
				return nil, err
			}
			td := in.Shear.Td()
			return EnvelopeParams{
				N1: in.Int("n1", 0), Shear: in.Shear,
				T2Stop:   in.Float("t2stop", td),
				StepT2:   td / float64(orDefault(in.Int("n2", 0), core.DefaultN2)),
				Accuracy: accuracyFrom(in),
			}, nil
		},
	})
}
