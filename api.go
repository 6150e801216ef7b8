// Package repro is the public facade of the reproduction of
// "A Time-domain RF Steady-State Method for Closely Spaced Tones"
// (J. Roychowdhury, DAC 2002). It re-exports the library's main entry
// points so downstream users do not need to reach into internal packages:
//
//   - circuit construction (NewCircuit, the device builders on Circuit,
//     waveforms DC/Sine/ModulatedCarrier, and the SPICE-ish netlist parser),
//   - Analyze, the unified context-first analysis entry point: every
//     analysis — the paper's "qpss" and "envelope" methods next to the
//     "dc"/"transient"/"shooting"/"hb"/"ac"/"pac" baselines — is registered
//     under a name and driven through one Request/Result contract, with
//     cooperative cancellation via the context,
//   - NewShear defining the difference-frequency time scale
//     fd = K·F1 − F2 of the paper's sheared grid, and
//   - Sweep, the concurrent batch engine that fans families of analyses
//     (QPSS, envelope, shooting, transient, HB) across a bounded worker
//     pool over parameter grids of tone spacing, drive amplitude and grid
//     size, with per-job cancellation and deterministic aggregation, and
//   - Serve, the HTTP simulation service that accepts decks with analysis
//     specs over JSON, multiplexes them onto the sweep engine behind a
//     content-addressed result cache, and streams per-job progress.
//
// A minimal session:
//
//	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{}) // LO-doubling mixer
//	res, err := repro.Analyze(ctx, repro.AnalysisRequest{
//	        Method:  "qpss",
//	        Circuit: mix.Ckt,
//	        Params:  repro.QPSSParams{N1: 40, N2: 30, Shear: mix.Shear},
//	})
//	sol := res.Raw().(*repro.MPDESolution)
//	bb := sol.DifferentialBaseband(mix.OutP, mix.OutM) // the down-converted bit stream
package repro

import (
	"context"
	"io"

	"repro/internal/ac"
	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hb"
	"repro/internal/netlist"
	"repro/internal/pac"
	"repro/internal/server"
	"repro/internal/shooting"
	"repro/internal/solver"
	"repro/internal/sweep"
	"repro/internal/transient"
)

// --- circuit construction ---------------------------------------------------

// Circuit is the flat MNA netlist container.
type Circuit = circuit.Circuit

// NewCircuit returns an empty circuit with the given title.
func NewCircuit(title string) *Circuit { return circuit.New(title) }

// Waveform types for independent sources.
type (
	// Waveform is any time-domain excitation.
	Waveform = device.Waveform
	// TorusWaveform is a bi-periodic excitation usable by MPDE/HB.
	TorusWaveform = device.TorusWaveform
	// DC is a constant source value.
	DC = device.DC
	// Sine is a (multi-)tone cosine declared on the torus.
	Sine = device.Sine
	// ModulatedCarrier is a bit-stream-modulated RF carrier (paper Eq. 14).
	ModulatedCarrier = device.ModulatedCarrier
	// Pulse is the SPICE trapezoidal pulse (transient-only).
	Pulse = device.Pulse
	// PWL is a piecewise-linear waveform (transient-only).
	PWL = device.PWL
	// Sum adds waveforms.
	Sum = device.Sum
	// MOSFET is the level-1 MOS model used by the mixer circuits.
	MOSFET = device.MOSFET
	// BJT is the Ebers–Moll bipolar model.
	BJT = device.BJT
	// TorusSquare is a smoothed square wave on the torus (PWM and hard
	// switching drives).
	TorusSquare = device.TorusSquare
)

// ParseNetlist reads a SPICE-flavoured deck (see internal/netlist for the
// dialect) and returns the parsed deck with its circuit and tone
// declarations.
func ParseNetlist(r io.Reader) (*netlist.Deck, error) { return netlist.Parse(r) }

// ParseNetlistString parses a deck held in a string.
func ParseNetlistString(s string) (*netlist.Deck, error) { return netlist.ParseString(s) }

// --- the unified analysis API -------------------------------------------------

// AnalysisRequest describes one analysis invocation for Analyze: the
// circuit under test, the registry method name, its typed parameters, and
// the common knobs (Newton options, probes, warm-start seed, progress
// hook). See internal/analysis for the full contract.
type AnalysisRequest = analysis.Request

// AnalysisResult is the uniform view of a finished analysis: node
// waveforms, spectra, solver stats and measurement extraction.
type AnalysisResult = analysis.Result

// AnalysisStats is the uniform solver-work report (Result.Stats).
type AnalysisStats = analysis.Stats

// AnalysisProbe selects a measured unknown (single-ended when M < 0).
type AnalysisProbe = analysis.Probe

// AnalysisWaveform is a sampled record of one probed output.
type AnalysisWaveform = analysis.Waveform

// AnalysisLine is one reported spectral mix.
type AnalysisLine = analysis.Line

// AnalysisMeasurement is the uniform swing/conversion-gain extraction.
type AnalysisMeasurement = analysis.Measurement

// AnalysisProgress is one coarse progress notification.
type AnalysisProgress = analysis.Progress

// AnalysisAccuracy is the uniform adaptive-control tolerance pair
// (reltol/abstol) shared by the envelope LTE step controller, QPSS/HB
// automatic grid sizing, and transient resolution refinement. The zero
// value keeps the historical fixed grids and steps.
type AnalysisAccuracy = analysis.Accuracy

// Typed parameter structs for AnalysisRequest.Params, one per registered
// analysis.
type (
	// QPSSParams configures the paper's "qpss" method.
	QPSSParams = analysis.QPSSParams
	// EnvelopeParams configures "envelope" following.
	EnvelopeParams = analysis.EnvelopeParams
	// ShootingParams configures "shooting".
	ShootingParams = analysis.ShootingParams
	// TransientParams configures "transient".
	TransientParams = analysis.TransientParams
	// HBParams configures "hb".
	HBParams = analysis.HBParams
	// ACParams configures "ac".
	ACParams = analysis.ACParams
	// PACParams configures "pac".
	PACParams = analysis.PACParams
	// DCParams configures "dc".
	DCParams = analysis.DCParams
)

// Analyze runs one analysis through the name-keyed registry — the single
// context-first entry point every dispatcher (sweep, HTTP service, deck
// directives, CLI) is built on. Cancelling ctx interrupts an in-flight
// Newton solve cooperatively, and an already-canceled context returns
// ctx.Err() before any assembly work:
//
//	sol, err := repro.Analyze(ctx, repro.AnalysisRequest{
//	        Method:  "qpss",
//	        Circuit: mix.Ckt,
//	        Params:  repro.QPSSParams{N1: 40, N2: 30, Shear: mix.Shear},
//	})
func Analyze(ctx context.Context, req AnalysisRequest) (AnalysisResult, error) {
	return analysis.Run(ctx, req)
}

// AnalysisNames lists the registered analyses, sorted.
func AnalysisNames() []string { return analysis.Names() }

// --- the paper's method -----------------------------------------------------

// Shear is the difference-frequency time-scale map (paper Section 2).
type Shear = core.Shear

// NewShear builds the map for tones F1 (fast/LO) and F2 (RF) with internal
// harmonic K: the difference frequency is fd = K·F1 − F2.
func NewShear(f1, f2 float64, k int) Shear { return Shear{F1: f1, F2: f2, K: k} }

// MPDEOptions configures the quasi-periodic MPDE solve.
type MPDEOptions = core.Options

// MPDESolution is the converged multi-time steady state, the Raw() value of
// a "qpss" analysis.
type MPDESolution = core.Solution

// MPDEGridSpectrum is the 2-D Fourier view of one unknown's multi-time
// surface (mixes k1·F1 + k2·fd).
type MPDEGridSpectrum = core.GridSpectrum

// DiffOrder selects the finite-difference order on the MPDE grid.
type DiffOrder = core.DiffOrder

// Difference orders for the MPDE grid.
const (
	Order1 = core.Order1
	Order2 = core.Order2
)

// MPDEAccuracyOptions configures tolerance-driven automatic grid sizing for
// MPDEQuasiPeriodicAdaptive.
type MPDEAccuracyOptions = core.AccuracyOptions

// MPDEQuasiPeriodicAdaptive computes the quasi-periodic steady state with
// automatic fast-grid sizing: solve coarse, measure the spectral tail of
// the converged solution, refine the aliasing axes (each round starting
// from the envelope march at its grid) until the tail passes acc.RelTol,
// stalls at the stimulus's own spectral floor, or hits a cap. With
// acc.RelTol = 0 it is exactly the fixed-grid solve.
func MPDEQuasiPeriodicAdaptive(ctx context.Context, ckt *Circuit, opt MPDEOptions, acc MPDEAccuracyOptions) (*MPDESolution, error) {
	return core.AdaptiveQPSS(ctx, ckt, opt, acc)
}

// MPDEEnvelopeResult is a slow-time trajectory of fast-periodic lines, the
// Raw() value of an "envelope" analysis.
type MPDEEnvelopeResult = core.EnvelopeResult

// --- baseline analyses --------------------------------------------------------

// TransientResult is a stored trajectory, the Raw() value of a "transient"
// analysis.
type TransientResult = transient.Result

// TransientMethod selects the integration formula.
type TransientMethod = transient.Method

// Integration methods.
const (
	BE    = transient.BE
	TRAP  = transient.TRAP
	GEAR2 = transient.GEAR2
)

// ShootingResult is a converged periodic orbit, the Raw() value of a
// "shooting" analysis.
type ShootingResult = shooting.Result

// HBSolution is a converged HB steady state, the Raw() value of an "hb"
// analysis.
type HBSolution = hb.Solution

// NewtonOptions exposes the shared nonlinear-solver configuration.
type NewtonOptions = solver.Options

// ACResult holds the swept phasor response, the Raw() value of an "ac"
// analysis.
type ACResult = ac.Result

// ACLogSweep returns log-spaced frequencies for ACParams.Freqs.
func ACLogSweep(f0, f1 float64, nPts int) []float64 { return ac.LogSweep(f0, f1, nPts) }

// PACResult holds periodic small-signal transfer functions, the Raw() value
// of a "pac" analysis.
type PACResult = pac.Result

// --- concurrent sweeps --------------------------------------------------------

// SweepSpec describes a batch of analyses over a parameter grid.
type SweepSpec = sweep.Spec

// SweepResult is the deterministic aggregate of a sweep.
type SweepResult = sweep.Result

// SweepGrid is a cartesian grid over tone spacing, drive amplitude and grid
// sizes.
type SweepGrid = sweep.Grid

// SweepPoint is one grid vertex.
type SweepPoint = sweep.Point

// SweepTarget is the circuit under test at one point.
type SweepTarget = sweep.Target

// SweepBuilder constructs targets from points.
type SweepBuilder = sweep.Builder

// SweepMethod names an analysis the engine can run.
type SweepMethod = sweep.Method

// SweepJob identifies one scheduled analysis.
type SweepJob = sweep.Job

// SweepJobResult carries one job's measurements.
type SweepJobResult = sweep.JobResult

// SweepStatus classifies a job outcome.
type SweepStatus = sweep.Status

// The analyses a sweep can fan out.
const (
	SweepQPSS      = sweep.QPSS
	SweepEnvelope  = sweep.Envelope
	SweepShooting  = sweep.Shooting
	SweepTransient = sweep.Transient
	SweepHB        = sweep.HB
)

// Job outcomes in SweepJobResult.Status.
const (
	SweepStatusOK       = sweep.StatusOK
	SweepStatusFailed   = sweep.StatusFailed
	SweepStatusCanceled = sweep.StatusCanceled
	SweepStatusTimeout  = sweep.StatusTimeout
)

// Sweep runs the spec's jobs across a bounded worker pool under ctx.
// Cancelling ctx interrupts in-flight Newton solves and returns promptly
// with partial results; see internal/sweep for the determinism guarantees.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	return sweep.Run(ctx, spec)
}

// --- the simulation service ---------------------------------------------------

// ServerOptions configures the HTTP simulation service: concurrency and
// queue bounds, the content-addressed result cache, drain behaviour, and
// the spool directory for flushed results.
type ServerOptions = server.Options

// Serve runs the HTTP simulation service on addr until ctx is canceled,
// then drains: running jobs get ServerOptions.DrainTimeout to finish,
// stragglers are interrupted cooperatively, and their partial sweep
// results are still flushed. See internal/server for the API surface
// (submit decks, SSE progress streams, /metrics).
func Serve(ctx context.Context, addr string, opt ServerOptions) error {
	return server.Serve(ctx, addr, opt)
}

// --- canonical circuits -------------------------------------------------------

// BalancedMixerConfig parameterises the paper's balanced LO-doubling mixer.
type BalancedMixerConfig = ckts.BalancedMixerConfig

// BalancedMixer is the assembled mixer with probe indices.
type BalancedMixer = ckts.BalancedMixer

// NewBalancedMixer builds the paper's Section-3 circuit.
func NewBalancedMixer(cfg BalancedMixerConfig) *BalancedMixer { return ckts.NewBalancedMixer(cfg) }

// UnbalancedMixerConfig parameterises the single-device switching mixer.
type UnbalancedMixerConfig = ckts.UnbalancedMixerConfig

// UnbalancedMixer is the assembled unbalanced mixer.
type UnbalancedMixer = ckts.UnbalancedMixer

// NewUnbalancedMixer builds the unbalanced switching mixer.
func NewUnbalancedMixer(cfg UnbalancedMixerConfig) *UnbalancedMixer {
	return ckts.NewUnbalancedMixer(cfg)
}

// IdealMixerConfig parameterises the behavioural multiplier mixer.
type IdealMixerConfig = ckts.IdealMixerConfig

// IdealMixer is the assembled ideal mixer.
type IdealMixer = ckts.IdealMixer

// NewIdealMixer builds the paper's ideal mixing example as a circuit.
func NewIdealMixer(cfg IdealMixerConfig) *IdealMixer { return ckts.NewIdealMixer(cfg) }

// BuckBeatConfig parameterises the power-conversion beat-interference
// example from the paper's conclusion.
type BuckBeatConfig = ckts.BuckBeatConfig

// BuckBeat is the assembled PWM buck converter with an aggressor tone.
type BuckBeat = ckts.BuckBeat

// NewBuckBeat builds the buck converter with a closely spaced aggressor on
// its input rail.
func NewBuckBeat(cfg BuckBeatConfig) *BuckBeat { return ckts.NewBuckBeat(cfg) }
