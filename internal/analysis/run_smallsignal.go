package analysis

import (
	"context"
	"errors"
	"math/cmplx"
	"sort"

	"repro/internal/ac"
	"repro/internal/pac"
)

// ACParams configures small-signal AC analysis ("ac").
type ACParams struct {
	// Source names the independent source carrying the unit stimulus
	// (required).
	Source string
	// Freqs lists the analysis frequencies in Hz (required, all > 0).
	Freqs []float64
}

// PACParams configures periodic AC (conversion-matrix) analysis ("pac").
type PACParams struct {
	// Period is the pump period the circuit is linearised around
	// (required).
	Period float64
	// Steps is the PSS grid resolution (default 256); K the sideband
	// truncation (default 8).
	Steps, K int
	// Source names the small-signal stimulus source (required).
	Source string
	// Freqs lists the stimulus frequencies (required, all > 0).
	Freqs []float64
}

func runAC(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[ACParams](req, "ac")
	if err != nil {
		return nil, err
	}
	res, err := ac.Analyze(ctx, req.Circuit, ac.Options{Source: p.Source, Freqs: p.Freqs})
	if err != nil {
		return nil, err
	}
	return &acResult{res: res, n: req.Circuit.Size()}, nil
}

type acResult struct {
	res *ac.Result
	n   int
}

func (r *acResult) Method() string  { return "ac" }
func (r *acResult) Raw() any        { return r.res }
func (r *acResult) Seed() []float64 { return nil }

func (r *acResult) Stats() Stats {
	st := fromSolver(r.res.Stats)
	st.Unknowns = r.n
	return st
}

// Waveform is the transfer magnitude |X(probe)| across the sweep;
// differential probes subtract phasors before taking the magnitude.
func (r *acResult) Waveform(p Probe) (Waveform, bool) {
	v := make([]float64, len(r.res.Freqs))
	for k := range r.res.Freqs {
		x := r.res.X[k][p.P]
		if p.M >= 0 {
			x -= r.res.X[k][p.M]
		}
		v[k] = cmplx.Abs(x)
	}
	return Waveform{Label: "f", T: append([]float64(nil), r.res.Freqs...), V: v}, true
}

func (r *acResult) Spectrum(Probe, int) ([]Line, bool) { return nil, false }

func (r *acResult) Measure(p Probe, rfAmp float64) Measurement {
	wf, _ := r.Waveform(p)
	return Measurement{Swing: swing(wf.V)}
}

func runPAC(ctx context.Context, req Request) (Result, error) {
	p, err := paramsAs[PACParams](req, "pac")
	if err != nil {
		return nil, err
	}
	res, err := pac.Analyze(ctx, req.Circuit, pac.Options{
		Period: p.Period, Steps: p.Steps, K: p.K,
		Source: p.Source, Freqs: p.Freqs,
	})
	if err != nil {
		return nil, err
	}
	return &pacResult{res: res, n: req.Circuit.Size()}, nil
}

type pacResult struct {
	res *pac.Result
	n   int
}

func (r *pacResult) Method() string  { return "pac" }
func (r *pacResult) Raw() any        { return r.res }
func (r *pacResult) Seed() []float64 { return nil }

func (r *pacResult) Stats() Stats {
	st := fromSolver(r.res.Stats)
	st.TimeSteps = r.res.PSSTimeSteps
	st.Unknowns = (2*r.res.K + 1) * r.n
	return st
}

func (r *pacResult) sideband(p Probe, f, k int) complex128 {
	x := r.res.SidebandPhasor(f, p.P, k)
	if p.M >= 0 {
		x -= r.res.SidebandPhasor(f, p.M, k)
	}
	return x
}

// Waveform is the classical down-conversion gain |X̂_{−1}(probe)| at
// fs − f0 across the stimulus sweep.
func (r *pacResult) Waveform(p Probe) (Waveform, bool) {
	v := make([]float64, len(r.res.Freqs))
	for f := range r.res.Freqs {
		v[f] = cmplx.Abs(r.sideband(p, f, -1))
	}
	return Waveform{Label: "f", T: append([]float64(nil), r.res.Freqs...), V: v}, true
}

// Spectrum reports the sideband amplitudes fs + k·f0 of the first stimulus
// frequency, strongest first: K1 indexes the LO harmonic k, K2 is 1 (one
// stimulus line).
func (r *pacResult) Spectrum(p Probe, top int) ([]Line, bool) {
	if len(r.res.Freqs) == 0 {
		return nil, false
	}
	if top <= 0 {
		return nil, true
	}
	fs := r.res.Freqs[0]
	var all []Line
	for k := -r.res.K; k <= r.res.K; k++ {
		amp := cmplx.Abs(r.sideband(p, 0, k))
		all = append(all, Line{K1: k, K2: 1, Freq: fs + float64(k)*r.res.F0, Amp: amp})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Amp > all[b].Amp })
	if top < len(all) {
		all = all[:top]
	}
	return all, true
}

func (r *pacResult) Measure(p Probe, rfAmp float64) Measurement {
	wf, _ := r.Waveform(p)
	return Measurement{Swing: swing(wf.V)}
}

func init() {
	Register(Descriptor{
		Name:       "ac",
		Doc:        "small-signal AC sweep of the circuit linearised at its bias point",
		Run:        runAC,
		WireParams: func() any { return new(ACParams) },
		NumKeys:    []string{"f0", "f1", "npts"},
		StrKeys:    []string{"source"},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			src := in.Str["source"]
			if src == "" {
				return nil, errors.New("analysis: ac needs source=<name>")
			}
			f0, f1 := in.Float("f0", 0), in.Float("f1", 0)
			if f0 <= 0 || f1 <= 0 {
				return nil, errors.New("analysis: ac needs f0=... and f1=... (positive sweep bounds)")
			}
			return ACParams{Source: src, Freqs: ac.LogSweep(f0, f1, orDefault(in.Int("npts", 0), 30))}, nil
		},
	})
	Register(Descriptor{
		Name:       "pac",
		Doc:        "periodic AC: conversion gains around a single-tone periodic steady state",
		Run:        runPAC,
		WireParams: func() any { return new(PACParams) },
		NumKeys:    []string{"f0", "f1", "npts", "k", "steps", "period"},
		StrKeys:    []string{"source"},
		DirectiveParams: func(in DirectiveInput) (any, error) {
			src := in.Str["source"]
			if src == "" {
				return nil, errors.New("analysis: pac needs source=<name>")
			}
			f0, f1 := in.Float("f0", 0), in.Float("f1", 0)
			if f0 <= 0 || f1 <= 0 {
				return nil, errors.New("analysis: pac needs f0=... and f1=... (positive sweep bounds)")
			}
			period := in.Float("period", 0)
			if period <= 0 {
				if err := in.Shear.Validate(); err != nil {
					return nil, errors.New("analysis: pac needs period=... or a .tones declaration")
				}
				period = 1 / in.Shear.F1
			}
			return PACParams{
				Period: period, Steps: in.Int("steps", 0), K: in.Int("k", 0),
				Source: src, Freqs: ac.LogSweep(f0, f1, orDefault(in.Int("npts", 0), 15)),
			}, nil
		},
	})
}
