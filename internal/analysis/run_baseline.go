package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/rf"
	"repro/internal/shooting"
	"repro/internal/solver"
	"repro/internal/transient"
)

// ShootingStepsCap bounds a single shooting/transient job; grids beyond it
// (very high disparity at fine resolution) fail with an explicit error
// instead of silently running for hours.
const ShootingStepsCap = 4_000_000

// fastSteps returns the number of fixed steps resolving every retained fast
// harmonic over one difference period.
func fastSteps(sh core.Shear, perFast float64) (int, error) {
	cycles := sh.Disparity() * math.Abs(float64(sh.K))
	steps := int(math.Ceil(cycles * perFast))
	if steps < 64 {
		steps = 64
	}
	if steps > ShootingStepsCap {
		return 0, fmt.Errorf("analysis: disparity %.3g needs %d time steps (cap %d); use qpss for this point",
			sh.Disparity(), steps, ShootingStepsCap)
	}
	return steps, nil
}

func perFastOr10(tune Tuning) float64 {
	if tune.StepsPerFastPeriod > 0 {
		return float64(tune.StepsPerFastPeriod)
	}
	return 10
}

// DCParams configures operating-point analysis ("dc").
type DCParams struct {
	// Time at which source waveforms are evaluated (default 0).
	Time float64
	// SignalsOff computes the true bias point (AC drive zeroed).
	SignalsOff bool
}

// TransientParams configures time-stepping integration ("transient").
type TransientParams struct {
	Method transient.Method
	TStop  float64
	// Step is the initial (and, for FixedStep, the only) step size; 0
	// selects TStop/1000.
	Step      float64
	FixedStep bool
	// MeasureSpan, when > 0, restricts Waveform/Measure to the trailing
	// window of that length, resampled at MeasureSamples points — the
	// "last settled difference period" convention of the sweep engine.
	MeasureSpan    float64
	MeasureSamples int
	// Fd is the difference frequency gain measurement references (0
	// disables gain).
	Fd float64
	// Accuracy, when enabled (and a measurement window is configured),
	// re-integrates at doubled time resolution until the window's spectral
	// tail passes RelTol or the refinement stalls — the integration
	// analogue of QPSS grid sizing.
	Accuracy Accuracy
}

// ShootingParams configures periodic steady-state shooting ("shooting").
type ShootingParams struct {
	// Period is the steady-state period (required).
	Period float64
	// Steps is the number of fixed BE steps per period (default 200).
	Steps int
	// Fd is the difference frequency gain measurement references.
	Fd float64
}

// HBParams configures two-tone harmonic balance ("hb").
type HBParams struct {
	// F1, F2 are the driving tone frequencies (F2 = 0 → single-tone).
	F1, F2 float64
	// N1, N2 are torus samples per axis (defaults hb.DefaultN1/N2).
	N1, N2 int
	// K is the LO harmonic of the fd = K·F1 − F2 down-conversion product
	// that Measure reports (default 1).
	K int
	// Accuracy, when enabled, replaces the fixed torus sampling with
	// automatic sizing: solve coarse, measure the solution's spectral tail,
	// and double the aliasing axes (warm-starting from the interpolated
	// coarse solution) until the tail passes RelTol or stalls.
	Accuracy Accuracy
}

// Adaptive-sizing limits of the analysis layer (the grid refinement policy
// itself lives in core.GridRefinement): transient's round cap, tighter
// because every round re-integrates the whole horizon from scratch, and
// HB's starting grid.
const (
	adaptiveTransientCap = 3
	adaptiveHBStartN1    = 16
	adaptiveHBStartN2    = 8
)

// fillAccuracy applies the shared AbsTol default.
func fillAccuracy(a Accuracy) Accuracy {
	if a.AbsTol <= 0 {
		a.AbsTol = core.AdaptiveAbsTol
	}
	return a
}

// --- dc ---------------------------------------------------------------------

func runDC(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[DCParams](req, "dc")
	if err != nil {
		return nil, err
	}
	x, st, err := transient.DC(ctx, req.Circuit, transient.DCOptions{
		Newton: req.Newton, Time: p.Time, SignalsOff: p.SignalsOff,
	})
	if err != nil {
		return nil, err
	}
	return &dcResult{x: x, st: st}, nil
}

type dcResult struct {
	x  []float64
	st solver.Stats
}

func (r *dcResult) Method() string  { return "dc" }
func (r *dcResult) Raw() any        { return r.x }
func (r *dcResult) Seed() []float64 { return nil }

func (r *dcResult) Stats() Stats {
	st := fromSolver(r.st)
	st.Unknowns = len(r.x)
	return st
}

func (r *dcResult) value(p Probe) float64 {
	v := r.x[p.P]
	if p.M >= 0 {
		v -= r.x[p.M]
	}
	return v
}

func (r *dcResult) Waveform(p Probe) (Waveform, bool) {
	return Waveform{Label: "op", T: []float64{0}, V: []float64{r.value(p)}}, true
}

func (r *dcResult) Spectrum(Probe, int) ([]Line, bool) { return nil, false }

func (r *dcResult) Measure(Probe, float64) Measurement { return Measurement{} }

// --- transient --------------------------------------------------------------

func runTransient(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[TransientParams](req, "transient")
	if err != nil {
		return nil, err
	}
	req.Circuit.Finalize()
	n := req.Circuit.Size()
	adaptive := p.Accuracy.Enabled() && p.MeasureSpan > 0 && p.MeasureSamples > 0 && p.Step > 0
	acc := fillAccuracy(p.Accuracy)
	var (
		tr                      *transientResult
		ax                      core.TailAxis
		work                    solver.Stats
		steps, rejected, rounds int
	)
	for round := 0; ; round++ {
		opt := transient.Options{
			Method: p.Method, TStop: p.TStop, Step: p.Step,
			FixedStep: p.FixedStep, Newton: req.Newton,
		}
		res, err := transient.Run(ctx, req.Circuit, opt)
		if err != nil {
			return nil, err
		}
		work.Add(res.Stats)
		steps += res.Steps
		rejected += res.Rejected
		tr = &transientResult{res: res, p: p, n: n, work: work, steps: steps, rejected: rejected, refines: rounds}
		if !adaptive {
			return tr, nil
		}
		// The refinement signal is the trailing measurement window of every
		// unknown, laid out as a 1-D "grid" so the spectral-tail estimator
		// is shared with the grid methods verbatim.
		samples := p.MeasureSamples
		win := make([]float64, samples*n)
		dst := make([]float64, n)
		dt := p.MeasureSpan / float64(samples)
		for s := 0; s < samples; s++ {
			copy(win[s*n:(s+1)*n], res.At(p.TStop-p.MeasureSpan+float64(s)*dt, dst))
		}
		tail, _ := core.GridSpectralTail(win, n, samples, 1, acc.AbsTol)
		if !ax.Grow(tail, acc.RelTol) || round >= adaptiveTransientCap {
			return tr, nil
		}
		if 2*res.Steps > ShootingStepsCap {
			return tr, nil
		}
		p.Step /= 2
		p.MeasureSamples *= 2
		rounds++
	}
}

type transientResult struct {
	res *transient.Result
	p   TransientParams
	n   int
	// work/steps/rejected accumulate the step solves' Newton work and the
	// accepted and rejected time steps over every refinement round;
	// refines counts the rounds beyond the first.
	work                     solver.Stats
	steps, rejected, refines int
}

func (r *transientResult) Method() string  { return "transient" }
func (r *transientResult) Raw() any        { return r.res }
func (r *transientResult) Seed() []float64 { return nil }

func (r *transientResult) Stats() Stats {
	st := fromSolver(r.work)
	st.TimeSteps = r.steps
	st.RejectedSteps = r.rejected
	st.Unknowns = r.n
	st.Refinements = r.refines
	return st
}

// window resamples the trailing measurement window, or returns the raw
// stored trajectory when no window was configured.
func (r *transientResult) window(p Probe) (t, v []float64, dt float64) {
	if r.p.MeasureSpan <= 0 || r.p.MeasureSamples <= 0 {
		t = r.res.T
		v = make([]float64, len(r.res.T))
		for k, x := range r.res.X {
			v[k] = x[p.P]
			if p.M >= 0 {
				v[k] -= x[p.M]
			}
		}
		return t, v, 0
	}
	steps := r.p.MeasureSamples
	t = make([]float64, steps)
	v = make([]float64, steps)
	dst := make([]float64, r.n)
	t1 := r.p.TStop
	// The sampling step is derived from the window itself, not from the
	// integration Step — the two coincide for sweep-built params but a
	// caller may run an adaptive integration (Step ≠ Span/Samples) and
	// still ask for a uniform trailing window.
	dt = r.p.MeasureSpan / float64(steps)
	for i := 0; i < steps; i++ {
		ti := t1 - r.p.MeasureSpan + float64(i)*dt
		x := r.res.At(ti, dst)
		t[i] = ti
		v[i] = x[p.P]
		if p.M >= 0 {
			v[i] -= x[p.M]
		}
	}
	return t, v, dt
}

func (r *transientResult) Waveform(p Probe) (Waveform, bool) {
	t, v, _ := r.window(p)
	return Waveform{Label: "t", T: t, V: v}, true
}

func (r *transientResult) Spectrum(Probe, int) ([]Line, bool) { return nil, false }

func (r *transientResult) Measure(p Probe, rfAmp float64) Measurement {
	_, v, dt := r.window(p)
	if dt <= 0 {
		return Measurement{Swing: swing(v)}
	}
	return measureRecord(v, dt, r.p.Fd, rfAmp)
}

// --- shooting ---------------------------------------------------------------

func runShooting(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[ShootingParams](req, "shooting")
	if err != nil {
		return nil, err
	}
	opt := shooting.Options{Period: p.Period, Steps: p.Steps, Newton: req.Newton}
	req.Circuit.Finalize()
	if len(req.Seed) == req.Circuit.Size() {
		opt.X0 = req.Seed
	}
	pss, err := shooting.PSS(ctx, req.Circuit, opt)
	if err != nil {
		return nil, err
	}
	return &shootingResult{pss: pss, p: p, n: req.Circuit.Size()}, nil
}

type shootingResult struct {
	pss *shooting.Result
	p   ShootingParams
	n   int
}

func (r *shootingResult) Method() string  { return "shooting" }
func (r *shootingResult) Raw() any        { return r.pss }
func (r *shootingResult) Seed() []float64 { return nil }

// Stats reports the step solves' LU work and timers; NewtonIters stays the
// shooting-Newton iteration count, not the step solves' iterations.
func (r *shootingResult) Stats() Stats {
	st := fromSolver(r.pss.Stats)
	st.NewtonIters = r.pss.Iterations
	st.TimeSteps = r.pss.TotalTimeSteps
	st.Unknowns = r.n
	return st
}

// orbitRecord drops the duplicated period endpoint: exactly Steps samples.
func (r *shootingResult) orbitRecord(p Probe) (t, v []float64, dt float64) {
	steps := len(r.pss.Orbit.X) - 1
	t = make([]float64, steps)
	v = make([]float64, steps)
	dt = r.p.Period / float64(steps)
	for i := 0; i < steps; i++ {
		t[i] = r.pss.Orbit.T[i]
		v[i] = r.pss.Orbit.X[i][p.P]
		if p.M >= 0 {
			v[i] -= r.pss.Orbit.X[i][p.M]
		}
	}
	return t, v, dt
}

func (r *shootingResult) Waveform(p Probe) (Waveform, bool) {
	t, v, _ := r.orbitRecord(p)
	return Waveform{Label: "t", T: t, V: v}, true
}

func (r *shootingResult) Spectrum(Probe, int) ([]Line, bool) { return nil, false }

func (r *shootingResult) Measure(p Probe, rfAmp float64) Measurement {
	_, v, dt := r.orbitRecord(p)
	return measureRecord(v, dt, r.p.Fd, rfAmp)
}

// --- hb ---------------------------------------------------------------------

func runHB(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[HBParams](req, "hb")
	if err != nil {
		return nil, err
	}
	// HB runs its own Newton loop; the shared Newton overrides are mapped
	// onto their equivalents field by field, with untouched (zero) values
	// keeping hb's own defaults. ResidTol plays the role of hb's relative
	// residual target.
	opt := hb.Options{
		F1: p.F1, F2: p.F2, N1: p.N1, N2: p.N2,
		MaxIter:   req.Newton.MaxIter,
		Tol:       req.Newton.ResidTol,
		GMRESTol:  req.Newton.GMRESTol,
		GMRESIter: req.Newton.GMRESIter,
		Progress:  req.Newton.Progress,
	}
	req.Circuit.Finalize()
	n := req.Circuit.Size()
	k := p.K
	if k == 0 {
		k = 1
	}
	if p.Accuracy.Enabled() {
		return runHBAdaptive(ctx, req, p, opt, n, k)
	}
	n1 := orDefault(p.N1, hb.DefaultN1)
	n2 := orDefault(p.N2, hb.DefaultN2)
	if p.F2 <= 0 {
		n2 = 1
	}
	if len(req.Seed) == n1*n2*n {
		opt.X0 = req.Seed
	}
	sol, err := hb.Solve(ctx, req.Circuit, opt)
	if err != nil {
		return nil, err
	}
	return &hbResult{sol: sol, k: k, n: n, work: sol.Stats}, nil
}

// runHBAdaptive sizes the HB torus sampling by core.GridRefinement, the
// policy of core.AdaptiveQPSS: both solutions share the (j·N1+i)·n+k grid
// layout, so the tail estimator applies verbatim. Each finer solve starts
// from the coarser solution interpolated onto its grid.
func runHBAdaptive(ctx context.Context, req Request, p HBParams, opt hb.Options, n, k int) (Result, error) {
	n2 := orDefault(p.N2, adaptiveHBStartN2)
	if p.F2 <= 0 {
		n2 = 1
	}
	ref := core.NewGridRefinement(core.AccuracyOptions{RelTol: p.Accuracy.RelTol, AbsTol: p.Accuracy.AbsTol},
		n, orDefault(p.N1, adaptiveHBStartN1), n2)
	var work solver.Stats
	opt.N1, opt.N2 = ref.N1, ref.N2
	for {
		sol, err := hb.Solve(ctx, req.Circuit, opt)
		if err != nil {
			return nil, err
		}
		work.Add(sol.Stats)
		if !ref.Next(sol.X) {
			return &hbResult{sol: sol, k: k, n: n, work: work, refines: ref.Refinements}, nil
		}
		opt.X0 = interpolateGrid(sol.X, n, opt.N1, opt.N2, ref.N1, ref.N2)
		opt.N1, opt.N2 = ref.N1, ref.N2
	}
}

// interpolateGrid resamples a bi-periodic grid solution (layout
// (j·N1+i)·n+k) from an oldN1×oldN2 grid onto a newN1×newN2 grid by
// bilinear interpolation with periodic wrap on both axes. Because both
// grids sample t1 ∈ [0,T1) and t2 ∈ [0,Td) uniformly from zero, fractional
// index scaling is exact in time — the result is the natural warm start for
// a refined HB solve.
func interpolateGrid(x []float64, n, oldN1, oldN2, newN1, newN2 int) []float64 {
	out := make([]float64, newN1*newN2*n)
	for j := 0; j < newN2; j++ {
		v := float64(j) * float64(oldN2) / float64(newN2)
		j0 := int(v)
		fj := v - float64(j0)
		j0 %= oldN2
		j1 := (j0 + 1) % oldN2
		for i := 0; i < newN1; i++ {
			u := float64(i) * float64(oldN1) / float64(newN1)
			i0 := int(u)
			fi := u - float64(i0)
			i0 %= oldN1
			i1 := (i0 + 1) % oldN1
			p00 := (j0*oldN1 + i0) * n
			p10 := (j0*oldN1 + i1) * n
			p01 := (j1*oldN1 + i0) * n
			p11 := (j1*oldN1 + i1) * n
			dst := (j*newN1 + i) * n
			for k := 0; k < n; k++ {
				out[dst+k] = (1-fj)*((1-fi)*x[p00+k]+fi*x[p10+k]) +
					fj*((1-fi)*x[p01+k]+fi*x[p11+k])
			}
		}
	}
	return out
}

type hbResult struct {
	sol *hb.Solution
	k   int // downconversion LO harmonic for Measure
	n   int
	// work totals the Newton work of every solve (every round of the
	// adaptive loop); refines counts the rounds beyond the first.
	work    solver.Stats
	refines int
}

func (r *hbResult) Method() string  { return "hb" }
func (r *hbResult) Raw() any        { return r.sol }
func (r *hbResult) Seed() []float64 { return r.sol.X }

func (r *hbResult) Stats() Stats {
	st := fromSolver(r.work)
	st.GridPoints = r.sol.N1 * r.sol.N2
	st.Unknowns = r.sol.N1 * r.sol.N2 * r.n
	st.Refinements = r.refines
	st.FinalN1 = r.sol.N1
	st.FinalN2 = r.sol.N2
	return st
}

// Waveform reconstructs the probe's time record over one beat period
// (fd = K·F1 − F2) by trigonometric interpolation of the torus solution.
func (r *hbResult) Waveform(p Probe) (Waveform, bool) {
	fd := math.Abs(float64(r.k)*r.sol.F1 - r.sol.F2)
	if r.sol.N2 == 1 || fd == 0 {
		// Single-tone: one LO period.
		fd = r.sol.F1
	}
	return r.waveform(p, 1/fd, 256), true
}

// waveform samples the probe at n times evenly spread over [0, span),
// transforming each leg's grid once.
func (r *hbResult) waveform(p Probe, span float64, n int) Waveform {
	t := make([]float64, n)
	for i := range t {
		t[i] = float64(i) * span / float64(n)
	}
	v := r.sol.OneTimeRecord(p.P, t)
	if p.M >= 0 {
		m := r.sol.OneTimeRecord(p.M, t)
		for i := range v {
			v[i] -= m[i]
		}
	}
	return Waveform{Label: "t", T: t, V: v}
}

func (r *hbResult) Spectrum(p Probe, top int) ([]Line, bool) {
	if top <= 0 {
		return nil, true
	}
	return mixLines(r.sol.Spectrum(p.P, p.M), top), true
}

func (r *hbResult) Measure(p Probe, rfAmp float64) Measurement {
	// One transform per leg; a differential probe subtracts phasors, so
	// phase information survives.
	plus := r.sol.Spectrum(p.P, -1)
	var minus core.GridSpectrum
	if p.M >= 0 {
		minus = r.sol.Spectrum(p.M, -1)
	}
	amp := func(k1, k2 int) float64 {
		ph := plus.Phasor(k1, k2)
		if p.M >= 0 {
			ph -= minus.Phasor(k1, k2)
		}
		return cmplx.Abs(ph)
	}
	// The down-converted fundamental lives at the (K, −1) mix on the
	// unsheared torus, its harmonics at (2K, −2), (3K, −3).
	k := r.k
	a1 := amp(k, -1)
	m := Measurement{Swing: 2 * a1} // peak-to-peak of the fundamental line
	if rfAmp > 0 && a1 > 0 {
		g := rf.ConversionGain{Ratio: a1 / rfAmp}
		g.DB = rf.DB(g.Ratio)
		g.HD2 = amp(2*k, -2) / a1
		g.HD3 = amp(3*k, -3) / a1
		m.GainValid = true
		m.Gain = g
	}
	return m
}

// --- registration -----------------------------------------------------------

func init() {
	Register(Descriptor{
		Name:       "dc",
		Doc:        "operating point with source-stepping and gmin-stepping fallbacks",
		Run:        runDC,
		WireParams: func() any { return new(DCParams) },
		NumKeys:    []string{"time"},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			return DCParams{Time: in.Float("time", 0)}, nil
		},
	})
	Register(Descriptor{
		Name:       "transient",
		Doc:        "brute-force time-stepping integration (the paper's cost baseline)",
		Run:        runTransient,
		WireParams: func() any { return new(TransientParams) },
		SweepParams: func(bi BuildInput) (any, error) {
			return transientSweepParams(bi)
		},
		NumKeys: withAccuracyKeys("periods", "steps", "tstop", "step"),
		StrKeys: []string{"method"},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			method := transient.GEAR2
			switch in.Str["method"] {
			case "", "gear2":
			case "be":
				method = transient.BE
			case "trap":
				method = transient.TRAP
			default:
				return nil, fmt.Errorf("analysis: unknown transient method %q (want be, trap or gear2)", in.Str["method"])
			}
			if v := in.Float("tstop", 0); v > 0 {
				// Absolute-horizon form: record the whole trajectory. It has
				// no trailing measurement window, so the tail-driven
				// refinement has nothing to measure — reject the tolerance
				// keys loudly instead of silently running fixed-step.
				if accuracyFrom(in).Enabled() {
					return nil, errors.New("analysis: transient tstop=... form does not support reltol/accuracy; use the periods= form (needs .tones)")
				}
				return TransientParams{Method: method, TStop: v, Step: in.Float("step", 0)}, nil
			}
			if err := in.Shear.Validate(); err != nil {
				return nil, fmt.Errorf("analysis: transient needs tstop=... or a .tones declaration: %w", err)
			}
			p, err := transientSweepParams(BuildInput{
				Target: Target{Shear: in.Shear},
				Tune: Tuning{
					TransientPeriods:   in.Float("periods", 0),
					StepsPerFastPeriod: in.Int("steps", 0),
					Accuracy:           accuracyFrom(in),
				},
			})
			if err != nil {
				return nil, err
			}
			tp := p.(TransientParams)
			tp.Method = method
			return tp, nil
		},
	})
	Register(Descriptor{
		Name:       "shooting",
		Doc:        "Aprille–Trick periodic steady state over one difference period",
		Run:        runShooting,
		WireParams: func() any { return new(ShootingParams) },
		SweepParams: func(bi BuildInput) (any, error) {
			sh := bi.Target.Shear
			steps, err := fastSteps(sh, perFastOr10(bi.Tune))
			if err != nil {
				return nil, err
			}
			return ShootingParams{Period: sh.Td(), Steps: steps, Fd: math.Abs(sh.Fd())}, nil
		},
		NumKeys: []string{"steps", "nsteps", "period"},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			var p ShootingParams
			if err := in.Shear.Validate(); err == nil {
				sh := in.Shear
				steps, serr := fastSteps(sh, float64(orDefault(in.Int("steps", 0), 10)))
				if serr != nil {
					return nil, serr
				}
				p = ShootingParams{Period: sh.Td(), Steps: steps, Fd: math.Abs(sh.Fd())}
			}
			if v := in.Float("period", 0); v > 0 {
				p.Period = v
			}
			if v := in.Int("nsteps", 0); v > 0 {
				p.Steps = v
			}
			if p.Period <= 0 {
				return nil, errors.New("analysis: shooting needs period=... or a .tones declaration")
			}
			return p, nil
		},
	})
	Register(Descriptor{
		Name:         "hb",
		Doc:          "box-truncated two-tone harmonic balance (the frequency-domain comparator)",
		Run:          runHB,
		WireParams:   func() any { return new(HBParams) },
		UsesGridAxes: true,
		Seedable:     true,
		NumKeys:      withAccuracyKeys("n1", "n2"),
		SweepParams: func(bi BuildInput) (any, error) {
			sh := bi.Target.Shear
			return HBParams{
				F1: sh.F1, F2: sh.F2, N1: bi.Point.N1, N2: bi.Point.N2, K: sh.K,
				Accuracy: bi.Tune.Accuracy,
			}, nil
		},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			if err := in.Shear.Validate(); err != nil {
				return nil, err
			}
			sh := in.Shear
			return HBParams{
				F1: sh.F1, F2: sh.F2, N1: in.Int("n1", 0), N2: in.Int("n2", 0), K: sh.K,
				Accuracy: accuracyFrom(in),
			}, nil
		},
	})
}

// transientSweepParams maps a sweep job onto TransientParams: integrate
// TransientPeriods difference periods at the shear-derived resolution and
// measure the last one.
func transientSweepParams(bi BuildInput) (any, error) {
	sh := bi.Target.Shear
	td := sh.Td()
	steps, err := fastSteps(sh, perFastOr10(bi.Tune))
	if err != nil {
		return nil, err
	}
	periods := bi.Tune.TransientPeriods
	if periods <= 0 {
		periods = 3
	}
	if float64(steps)*periods > ShootingStepsCap {
		return nil, fmt.Errorf("analysis: transient horizon %.3g·Td needs %.0f steps (cap %d)",
			periods, float64(steps)*periods, ShootingStepsCap)
	}
	step := td / float64(steps)
	return TransientParams{
		Method: transient.GEAR2, TStop: periods * td, Step: step,
		FixedStep: true, MeasureSpan: td, MeasureSamples: steps,
		Fd:       math.Abs(sh.Fd()),
		Accuracy: bi.Tune.Accuracy,
	}, nil
}
