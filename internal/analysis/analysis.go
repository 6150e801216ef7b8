// Package analysis is the unified, context-first analysis API of the
// reproduction. Every analysis the library implements — the paper's MPDE
// QPSS and envelope methods, the shooting/transient/harmonic-balance
// baselines, DC, and the small-signal AC/PAC analyses — is registered in a
// name-keyed Registry and invoked through one entry point:
//
//	res, err := analysis.Run(ctx, analysis.Request{
//	        Method:  "qpss",
//	        Circuit: ckt,
//	        Params:  analysis.QPSSParams{N1: 40, N2: 30, Shear: sh},
//	})
//
// A Request is the circuit plus typed per-analysis parameters and the
// common knobs every analysis shares: Newton options, probes, a warm-start
// seed and a progress hook. The Result interface gives uniform access to
// node waveforms, spectra, solver statistics and measurement extraction, so
// dispatchers (the sweep engine, the HTTP service, netlist `.analysis`
// directives and the CLI) handle every method through the same contract and
// a new analysis registered here appears in all of them for free.
//
// Cancellation is context-first end to end: cancelling ctx aborts in-flight
// Newton iterations cooperatively (the solver derives its internal
// interrupt poll from ctx.Done()), and a Request run under an
// already-canceled context returns ctx.Err() before any assembly work.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/solver"
)

// Accuracy is the uniform tolerance contract of the adaptive analyses: the
// same two knobs mean "how accurate" everywhere — the envelope follower's
// LTE step controller, QPSS/HB automatic grid sizing, and transient
// step-resolution refinement. The zero value selects the historical fixed
// grids and steps.
//
// Dispatchers spell the knobs `reltol`/`abstol` (netlist `.analysis` keys,
// sweep Spec fields, server JSON, CLI flags); the shorthand `accuracy=d`
// means reltol=10⁻ᵈ.
type Accuracy struct {
	// RelTol > 0 turns the analysis's adaptive control on: target relative
	// error (envelope LTE, transient) or spectral-tail ratio (QPSS/HB grid
	// sizing).
	RelTol float64 `json:"reltol,omitempty"`
	// AbsTol is the absolute floor below which error or spectral content is
	// ignored (each analysis defaults it sensibly when zero).
	AbsTol float64 `json:"abstol,omitempty"`
}

// Enabled reports whether the tolerance pair requests adaptive control.
func (a Accuracy) Enabled() bool { return a.RelTol > 0 }

// Probe selects the measured unknown: single-ended P when M < 0,
// differential P − M otherwise.
type Probe struct {
	P int `json:"p"`
	M int `json:"m"`
}

// SingleEnded returns the probe for one unknown index.
func SingleEnded(p int) Probe { return Probe{P: p, M: -1} }

// Progress is one coarse notification from a running analysis.
type Progress struct {
	// Analysis is the registry name of the running analysis.
	Analysis string
	// Phase labels the stage ("newton" for nonlinear iterations).
	Phase string
	// Iter is the 1-based iteration count within the phase.
	Iter int
	// Residual is the current residual ∞-norm (NaN when not yet known).
	Residual float64
}

// Request describes one analysis invocation: the circuit under test, the
// typed per-analysis parameters, and the knobs every analysis shares.
type Request struct {
	// Method is the registry name ("qpss", "envelope", "shooting",
	// "transient", "hb", "dc", "ac", "pac", ...).
	Method string
	// Circuit is the circuit under test (required). The runner finalises
	// it; a finalised circuit is read-only and may be shared by concurrent
	// requests.
	Circuit *circuit.Circuit
	// Params holds the method's typed parameter struct (QPSSParams,
	// ShootingParams, ...). A nil Params selects every default.
	Params any
	// Newton overrides the shared nonlinear-solver configuration. Set
	// fields are merged non-destructively over each analysis's own
	// defaults; methods with a private Newton loop (HB) map the individual
	// fields onto their equivalents.
	Newton solver.Options
	// Probes lists the outputs of interest. Runners do not need it to
	// solve — Result accessors take explicit probes — but carriers like
	// the CLI use it to drive uniform extraction.
	Probes []Probe
	// Seed optionally warm-starts the solve with a previously converged
	// grid (Result.Seed of a compatible earlier run). It is advisory: a
	// seed whose length does not match the request's unknown layout is
	// ignored rather than rejected.
	Seed []float64
	// Progress, when non-nil, receives coarse progress events (Newton
	// iterations). It may be called from the solve's goroutine and must be
	// cheap and non-blocking.
	Progress func(Progress)
}

// Stats is the uniform solver-work report every analysis exports. Fields
// an analysis has no notion of stay zero (a transient has no grid points,
// AC has no Newton iterations beyond its operating point). The JSON tags
// are the sweep's per-job keys (sweep.JobResult embeds Stats), so the
// field order is the key order of the byte-stable exports.
type Stats struct {
	// AssemblyTime totals residual/Jacobian assembly; FactorTime totals
	// factorisation time. Both are wall-clock and excluded from the
	// byte-stable exports. Shooting and transient report both as zero:
	// their step solves do not read the clock (see solver.Workspace), and
	// the job's wall time covers them.
	AssemblyTime time.Duration `json:"assembly_ns,omitempty"`
	FactorTime   time.Duration `json:"factor_ns,omitempty"`
	// NewtonIters totals nonlinear iterations.
	NewtonIters int `json:"newton_iters"`
	// TimeSteps totals integration steps (shooting/transient/envelope).
	TimeSteps int `json:"time_steps,omitempty"`
	// Unknowns is the solved system size.
	Unknowns int `json:"unknowns,omitempty"`
	// Factorizations counts full (symbolic+numeric) matrix factorisations;
	// Refactorizations the numeric-only ones that reused a symbolic
	// analysis; PatternReuse the Jacobian assemblies restamped in place.
	Factorizations   int `json:"factorizations,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	PatternReuse     int `json:"pattern_reuse,omitempty"`
	// OperatorApplies counts matrix-free Jacobian-vector products;
	// PrecondBuilds counts preconditioner constructions; BatchReuse counts
	// batched line-preconditioner slots refactored against the batch's
	// shared symbolic analysis.
	OperatorApplies int `json:"operator_applies,omitempty"`
	PrecondBuilds   int `json:"precond_builds,omitempty"`
	BatchReuse      int `json:"batch_reuse,omitempty"`
	// LinearIters totals inner linear-solver (GMRES) iterations;
	// GMRESFallbacks counts GMRES failures rescued by a direct solve;
	// Halvings the Newton damping step halvings.
	LinearIters    int `json:"linear_iters,omitempty"`
	GMRESFallbacks int `json:"gmres_fallbacks,omitempty"`
	Halvings       int `json:"halvings,omitempty"`
	// AcceptedSteps/RejectedSteps report the envelope LTE controller's
	// outcomes; RejectedSteps also counts the transient's retried steps
	// (LTE rejections and Newton failures).
	AcceptedSteps int `json:"accepted_steps,omitempty"`
	RejectedSteps int `json:"rejected_steps,omitempty"`
	// Refinements counts automatic grid/step refinement rounds beyond the
	// initial solve (QPSS/HB grid sizing, transient resolution doubling).
	Refinements int `json:"refinements,omitempty"`
	// FinalN1/FinalN2 are the grid sizes the converged solve actually used —
	// equal to the request for fixed grids, chosen by the solver under
	// Accuracy-driven sizing.
	FinalN1 int `json:"final_n1,omitempty"`
	FinalN2 int `json:"final_n2,omitempty"`
	// UsedContinuation marks solves rescued by source stepping.
	UsedContinuation bool `json:"used_continuation,omitempty"`
	// GridPoints counts collocation points of grid methods; PatternBuilds
	// the Jacobian assemblies that took a new block-stencil plan, compiled
	// or loaded from the process-wide table. Neither is exported per job.
	GridPoints    int `json:"-"`
	PatternBuilds int `json:"-"`
}

// fromSolver maps a Newton-work total onto the Stats fields it shares.
func fromSolver(st solver.Stats) Stats {
	return Stats{
		AssemblyTime:     st.AssemblyTime,
		FactorTime:       st.FactorTime,
		NewtonIters:      st.NewtonIters,
		Factorizations:   st.Factorizations,
		Refactorizations: st.Refactorizations,
		OperatorApplies:  st.OperatorApplies,
		PrecondBuilds:    st.PrecondBuilds,
		BatchReuse:       st.BatchReuse,
		LinearIters:      st.LinearIters,
		GMRESFallbacks:   st.GMRESFallbacks,
		Halvings:         st.Halvings,
	}
}

// Waveform is a uniform sampled record of one probed output in the
// analysis's native representation: the slow-time baseband for QPSS and
// envelope, the raw orbit for shooting, the trajectory (or trailing
// measurement window) for transient, a reconstructed beat period for HB,
// the response-vs-frequency magnitude for AC/PAC, and the single operating
// point for DC.
type Waveform struct {
	// Label names the abscissa: "t" (time), "t2" (slow time), "f"
	// (frequency), "op" (operating point).
	Label string
	T     []float64
	V     []float64
}

// Line is one reported spectral mix k1·F1 + k2·F2 (or k1·F1 + k2·fd on the
// sheared grid).
type Line struct {
	K1   int     `json:"k1"`
	K2   int     `json:"k2"`
	Freq float64 `json:"freq"`
	Amp  float64 `json:"amp"`
}

// Measurement is the uniform figure-of-merit extraction.
type Measurement struct {
	// Swing is max−min of the method's native output record.
	Swing float64
	// GainValid guards Gain: conversion gain referenced to the requested
	// RF amplitude, when the method can measure one.
	GainValid bool
	Gain      rf.ConversionGain
}

// Result is the uniform view of a finished analysis. Accessors report
// ok=false when the method has no meaningful answer for them (a transient
// has no mix spectrum, DC has no time axis to measure gain on).
type Result interface {
	// Method returns the registry name that produced this result.
	Method() string
	// Stats reports the solver work.
	Stats() Stats
	// Waveform returns the native output record of probe p.
	Waveform(p Probe) (Waveform, bool)
	// Spectrum returns up to top dominant spectral lines of probe p,
	// strongest first.
	Spectrum(p Probe, top int) ([]Line, bool)
	// Measure extracts swing and, when the method supports it, the
	// conversion gain referenced to rfAmp (0 disables gain).
	Measure(p Probe, rfAmp float64) Measurement
	// Seed returns the converged grid in the layout a same-shaped
	// Request.Seed expects, or nil when the method is not seedable.
	Seed() []float64
	// Raw returns the underlying method-specific solution (*core.Solution,
	// *hb.Solution, ...) for callers that need full access.
	Raw() any
}

// Run resolves req.Method in the registry and executes the analysis under
// ctx. An already-canceled context returns ctx.Err() immediately — before
// circuit finalisation, Jacobian pattern building or any grid assembly —
// and cancelling ctx mid-solve aborts the Newton iterations cooperatively
// with an error that wraps ctx.Err().
func Run(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := Get(req.Method)
	if err != nil {
		return nil, err
	}
	if req.Circuit == nil {
		return nil, errors.New("analysis: Request.Circuit is required")
	}
	if req.Progress != nil {
		hook, name := req.Progress, d.Name
		prev := req.Newton.Progress
		req.Newton.Progress = func(iter int, residual float64) {
			if prev != nil {
				prev(iter, residual)
			}
			hook(Progress{Analysis: name, Phase: "newton", Iter: iter, Residual: residual})
		}
	}
	// The Enabled guard keeps the disabled path allocation-free: the span
	// name concatenation is only paid when a recorder is installed.
	if obs.Enabled(ctx) {
		sctx, span := obs.Start(ctx, "analysis."+d.Name)
		res, err := d.Run(sctx, req)
		if err != nil {
			span.SetStr("error", err.Error())
		} else if res != nil {
			st := res.Stats()
			span.SetInt("newton_iters", int64(st.NewtonIters))
			span.SetInt("unknowns", int64(st.Unknowns))
		}
		span.End()
		return res, err
	}
	return d.Run(ctx, req)
}

// Canceled reports whether err stems from context cancellation — either
// the context error itself (pre-start fast path) or a cooperative solver
// interrupt that wrapped it.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		solver.Interrupted(err) ||
		errors.Is(err, hb.ErrInterrupted)
}

// paramsAs coerces req.Params to the method's typed parameter struct; a
// nil Params yields the zero value (all defaults).
func paramsAs[T any](req Request, method string) (T, error) {
	var zero T
	if req.Params == nil {
		return zero, nil
	}
	p, ok := req.Params.(T)
	if !ok {
		return zero, fmt.Errorf("analysis: %s wants Params of type %T, got %T", method, zero, req.Params)
	}
	return p, nil
}

// accuracyKeys are the uniform directive keys every adaptive analysis
// accepts; descriptors append them to their NumKeys.
var accuracyKeys = []string{"reltol", "abstol", "accuracy"}

// withAccuracyKeys appends the uniform tolerance keys to a method's own.
func withAccuracyKeys(keys ...string) []string {
	return append(keys, accuracyKeys...)
}

// accuracyFrom reads the uniform tolerance keys of a directive:
// reltol/abstol verbatim, with accuracy=d as the 10⁻ᵈ shorthand for reltol.
func accuracyFrom(in DirectiveInput) Accuracy {
	acc := Accuracy{RelTol: in.Float("reltol", 0), AbsTol: in.Float("abstol", 0)}
	if d := in.Float("accuracy", 0); d > 0 && acc.RelTol == 0 {
		acc.RelTol = math.Pow(10, -d)
	}
	return acc
}

// orDefault substitutes def for non-positive v.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// swing returns max−min of a record.
func swing(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// measureRecord computes swing and, when a reference amplitude is available
// and the record is long enough, the conversion gain of a uniform record
// spanning one difference period.
func measureRecord(vals []float64, dt, fd, rfAmp float64) Measurement {
	m := Measurement{Swing: swing(vals)}
	if rfAmp > 0 && len(vals) >= 8 {
		if g, err := rf.MeasureConversionGain(vals, dt, fd, rfAmp); err == nil {
			m.GainValid = true
			m.Gain = g
		}
	}
	return m
}
