// Package pac implements periodic AC (PAC) analysis: small-signal transfer
// functions of a circuit linearised around a periodic steady state. A
// periodically time-varying (LPTV) circuit — e.g. a mixer pumped by its LO —
// converts a small input at frequency fs into output sidebands at fs + k·f0;
// PAC computes all of them in one linear solve. It complements the MPDE
// machinery: where the MPDE computes the large-signal quasi-periodic state,
// PAC gives the small-signal conversion gains around a single-tone PSS, the
// classical way RF simulators report mixer gain.
//
// Formulation (conversion matrices): linearising around the orbit gives the
// LPTV system d/dt[C(t)·x̃] + G(t)·x̃ + b̃ = 0 with T-periodic C, G. Writing
// x̃ = Σ_k X_k·e^{j(ωs + kω0)t} and expanding C(t), G(t) in Fourier series
// Ĉ_m, Ĝ_m yields the block-Toeplitz "conversion matrix" equations
//
//	Σ_m [ j(ωs + kω0)·Ĉ_{k−m} + Ĝ_{k−m} ]·X_m = −B̂_k ,   |k| ≤ K
//
// solved densely in the frequency domain. The frequency treatment is exact —
// essential when fs sits within a hair of a pump harmonic and the difference
// frequency (ωs − kω0 ~ kHz against GHz carriers) must survive the
// cancellation of two enormous terms; a time-stepping envelope formulation
// loses it to O(ω0²h) discretisation phase error.
package pac

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fft"
	"repro/internal/la"
	"repro/internal/shooting"
	"repro/internal/solver"
)

// Options configures a PAC run.
type Options struct {
	// Period and Steps define the PSS grid (Steps defaults to 256).
	Period float64
	Steps  int
	// K is the sideband truncation: harmonics |k| ≤ K are retained
	// (default 8).
	K int
	// Source names the independent V or I source carrying the unit
	// small-signal stimulus.
	Source string
	// Freqs are the stimulus frequencies fs (all > 0).
	Freqs []float64
}

// Result holds the periodic small-signal response.
type Result struct {
	Freqs []float64
	F0    float64 // the pump (PSS) fundamental 1/Period
	K     int     // sideband truncation
	n     int     // circuit unknowns
	// X[f][(k+K)*n + i] is the phasor of unknown i at sideband k for
	// stimulus frequency Freqs[f].
	X [][]complex128
	// Stats aggregates the solver work: the internal PSS shooting-Newton
	// iterations, the orbit linearisation, and one dense conversion-matrix
	// factorisation per stimulus frequency — the same counters QPSS
	// exports, via analysis.Result.Stats().
	Stats solver.Stats
	// PSSTimeSteps counts the backward-Euler steps of the internal PSS:
	// one period per shooting-Newton iteration, the last being the orbit.
	PSSTimeSteps int
}

// SidebandPhasor returns the complex phasor X̂_k(node) of the output
// component at frequency fs + k·f0 for stimulus index f.
func (r *Result) SidebandPhasor(f, node, k int) complex128 {
	if k < -r.K || k > r.K {
		return 0
	}
	return r.X[f][(k+r.K)*r.n+node]
}

// SidebandAmp returns |X̂_k(node)|: with a unit stimulus, the gain to the
// k-th LO sideband (k = −1 is the classical down-conversion product
// fs − f0).
func (r *Result) SidebandAmp(f, node, k int) float64 {
	return cmplx.Abs(r.SidebandPhasor(f, node, k))
}

// Analyze runs PAC. Cancelling ctx aborts the internal PSS solve and the
// stimulus-frequency sweep cooperatively; an already-canceled context
// returns ctx.Err() before any work.
func Analyze(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Period <= 0 {
		return nil, errors.New("pac: Period must be positive")
	}
	if len(opt.Freqs) == 0 {
		return nil, errors.New("pac: Freqs is required")
	}
	for _, f := range opt.Freqs {
		if f <= 0 {
			return nil, fmt.Errorf("pac: non-positive frequency %g", f)
		}
	}
	if opt.Steps <= 0 {
		opt.Steps = 256
	}
	if opt.K <= 0 {
		opt.K = 8
	}
	if 2*opt.K+1 > opt.Steps {
		return nil, fmt.Errorf("pac: K=%d needs at least %d PSS steps", opt.K, 2*opt.K+1)
	}
	ckt.Finalize()
	n := ckt.Size()

	pss, err := shooting.PSS(ctx, ckt, shooting.Options{Period: opt.Period, Steps: opt.Steps})
	if err != nil {
		return nil, fmt.Errorf("pac: PSS failed: %w", err)
	}
	st := solver.Stats{NewtonIters: pss.Iterations}
	orbit := pss.Orbit
	if orbit == nil || len(orbit.X) < 2 {
		return nil, errors.New("pac: PSS orbit missing")
	}
	N := len(orbit.X) - 1 // last point repeats the first

	// Linearise around each orbit point and collect the union sparsity
	// pattern of C and G.
	ta := time.Now()
	ev := ckt.NewEval()
	cs := make([]*la.CSR, N)
	gs := make([]*la.CSR, N)
	for p := 0; p < N; p++ {
		res := ev.EvalAt(orbit.X[p], device.EvalCtx{T: orbit.T[p], Lambda: 1}, true)
		cs[p] = res.C
		gs[p] = res.G
	}
	cHat := harmonics(cs, n, N, opt.K)
	gHat := harmonics(gs, n, N, opt.K)
	st.AssemblyTime += time.Since(ta)

	// Stimulus vector (constant envelope → only the k=0 block).
	bPat, err := stimulus(ckt, opt.Source, n)
	if err != nil {
		return nil, err
	}

	K := opt.K
	nb := 2*K + 1
	dim := nb * n
	w0 := 2 * math.Pi / opt.Period
	out := &Result{Freqs: append([]float64(nil), opt.Freqs...),
		F0: 1 / opt.Period, K: K, n: n}

	for _, fs := range opt.Freqs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pac: sweep interrupted at fs=%g: %w", fs, err)
		}
		ws := 2 * math.Pi * fs
		ta := time.Now()
		a := la.NewCDense(dim, dim)
		for kb := -K; kb <= K; kb++ { // output harmonic (block row)
			rowBase := (kb + K) * n
			jw := complex(0, ws+float64(kb)*w0)
			for mb := -K; mb <= K; mb++ { // input harmonic (block col)
				d := kb - mb
				if d < -K || d > K {
					continue
				}
				colBase := (mb + K) * n
				ch := cHat[d+K]
				gh := gHat[d+K]
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						v := jw*ch.At(i, j) + gh.At(i, j)
						if v != 0 {
							a.Add(rowBase+i, colBase+j, v)
						}
					}
				}
			}
		}
		rhs := make([]complex128, dim)
		for i := 0; i < n; i++ {
			rhs[K*n+i] = complex(-bPat[i], 0)
		}
		st.AssemblyTime += time.Since(ta)
		tf := time.Now()
		lu, err := la.CDenseLU(a)
		st.FactorTime += time.Since(tf)
		if err != nil {
			return nil, fmt.Errorf("pac: conversion matrix singular at fs=%g: %w", fs, err)
		}
		st.Factorizations++
		x := make([]complex128, dim)
		lu.Solve(rhs, x)
		out.X = append(out.X, x)
	}
	out.Stats = st
	out.PSSTimeSteps = pss.TotalTimeSteps
	return out, nil
}

// harmonics computes the Fourier coefficients M̂_d (|d| ≤ K) of a periodic
// matrix sampled at N points, returned as dense complex matrices indexed
// d+K. Convention: M(t) = Σ_d M̂_d·e^{j·d·ω0·t}.
func harmonics(ms []*la.CSR, n, N, K int) []*la.CDense {
	out := make([]*la.CDense, 2*K+1)
	for d := range out {
		out[d] = la.NewCDense(n, n)
	}
	// Union pattern via accumulation: FFT each entry's time series.
	type key struct{ i, j int }
	pattern := map[key][]float64{}
	for p, m := range ms {
		for i := 0; i < m.Rows; i++ {
			for q := m.RowPtr[i]; q < m.RowPtr[i+1]; q++ {
				k := key{i, m.ColIdx[q]}
				ts, ok := pattern[k]
				if !ok {
					ts = make([]float64, N)
					pattern[k] = ts
				}
				ts[p] = m.Val[q]
			}
		}
	}
	plan := fft.PlanFor(N)
	spec := make([]complex128, N)
	scratch := make([]complex128, plan.ScratchLen())
	for k, ts := range pattern {
		for p := 0; p < N; p++ {
			spec[p] = complex(ts[p], 0)
		}
		plan.Forward(spec, scratch)
		for d := -K; d <= K; d++ {
			idx := ((d % N) + N) % N
			out[d+K].Set(k.i, k.j, spec[idx]/complex(float64(N), 0))
		}
	}
	return out
}

func stimulus(ckt *circuit.Circuit, name string, n int) ([]float64, error) {
	if name == "" {
		return nil, errors.New("pac: Source is required")
	}
	b := make([]float64, n)
	for _, d := range ckt.Devices() {
		if d.Name() != name {
			continue
		}
		switch s := d.(type) {
		case *device.VSource:
			b[s.Branch()] = -1 // branch equation: v+ − v− − Vs = 0
			return b, nil
		case *device.ISource:
			if s.P >= 0 {
				b[s.P] += 1
			}
			if s.N >= 0 {
				b[s.N] -= 1
			}
			return b, nil
		default:
			return nil, fmt.Errorf("pac: device %q is not an independent source", name)
		}
	}
	return nil, fmt.Errorf("pac: no source named %q", name)
}
