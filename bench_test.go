// Benchmark harness: one benchmark per paper artifact (DESIGN.md Section 3).
//
//	F1/F2  — multi-time representations of the ideal mix (Figs. 1–2)
//	F3–F6  — balanced LO-doubling mixer QPSS on the paper's 40×30 grid
//	S1     — MPDE vs shooting vs transient cost across disparity
//	G1     — down-conversion gain measurement
//	A1     — ablation: HB vs MPDE on a switching mixer
//	A2     — ablation: first- vs second-order MPDE differences
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/shooting"
	"repro/internal/transient"
)

type productWave struct{}

func (productWave) Eval(t float64) float64 {
	return math.Cos(2*math.Pi*1e9*t) * math.Cos(2*math.Pi*(1e9-1e4)*t)
}
func (productWave) EvalTorus(th1, th2 float64) float64 {
	return math.Cos(2*math.Pi*th1) * math.Cos(2*math.Pi*th2)
}

// BenchmarkFig1IdealMixUnsheared samples the unsheared ẑ1(t1,t2) surface.
func BenchmarkFig1IdealMixUnsheared(b *testing.B) {
	sh := repro.NewShear(1e9, 1e9-1e4, 1)
	for i := 0; i < b.N; i++ {
		s := repro.SampleUnsheared(productWave{}, sh, 40, 60)
		if len(s.Z) != 40 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkFig2IdealMixSheared samples the sheared ẑ2(t1,t2) surface whose
// t2 axis spans the 0.1 ms difference period.
func BenchmarkFig2IdealMixSheared(b *testing.B) {
	sh := repro.NewShear(1e9, 1e9-1e4, 1)
	for i := 0; i < b.N; i++ {
		s := repro.SampleSheared(productWave{}, sh, 40, 60)
		if len(s.Z) != 40 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkFig3to5BalancedMixerQPSS solves the paper's balanced mixer with a
// bit-modulated RF on the 40×30 grid — the computation behind Figs. 3, 4, 5.
func BenchmarkFig3to5BalancedMixerQPSS(b *testing.B) {
	bits := repro.PRBS7(0x4D, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
		sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 40, N2: 30, Shear: mix.Shear})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sol.Stats.NewtonIters), "newton-iters")
	}
}

// BenchmarkFig6OneTimeReconstruction measures the diagonal reconstruction
// x(t) = x̂(t, t) over 5 LO periods from a solved grid.
func BenchmarkFig6OneTimeReconstruction(b *testing.B) {
	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: repro.PRBS7(0x4D, 8)})
	sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
		N1: 40, N2: 30, Shear: mix.Shear})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, vs := sol.ReconstructOneTime(mix.Tail, 2.223e-6, 2.223e-6+5*mix.Shear.T1(), 400)
		if len(vs) != 400 {
			b.Fatal("bad reconstruction")
		}
	}
}

// benchUnbalanced builds the speedup-study mixer at the given disparity.
func benchUnbalanced(disparity float64) *repro.UnbalancedMixer {
	f1 := 100e6
	return repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: f1 / disparity})
}

// BenchmarkSpeedupMPDE_Disparity200 etc.: MPDE QPSS cost is independent of
// the disparity; shooting cost grows linearly with it (paper "Computational
// speedup"). Compare the MPDE and Shooting benches at equal disparity.
func BenchmarkSpeedupMPDE_Disparity200(b *testing.B)  { benchMPDE(b, 200) }
func BenchmarkSpeedupMPDE_Disparity1000(b *testing.B) { benchMPDE(b, 1000) }
func BenchmarkSpeedupMPDE_Disparity30000(b *testing.B) {
	benchMPDE(b, 30000) // the paper's 450 MHz / 15 kHz operating point
}

func benchMPDE(b *testing.B, disparity float64) {
	for i := 0; i < b.N; i++ {
		mix := benchUnbalanced(disparity)
		if _, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 40, N2: 30, Shear: mix.Shear}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedupShooting_Disparity200(b *testing.B)  { benchShooting(b, 200) }
func BenchmarkSpeedupShooting_Disparity1000(b *testing.B) { benchShooting(b, 1000) }

func benchShooting(b *testing.B, disparity float64) {
	for i := 0; i < b.N; i++ {
		mix := benchUnbalanced(disparity)
		fd := 100e6 / disparity
		if _, err := shooting.PSS(context.Background(), mix.Ckt, shooting.Options{
			Period: 1 / fd, Steps: int(10 * disparity), Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedupTransient_Disparity200 integrates 3 difference periods by
// brute force — the cost SPICE-style simulation pays before it can even
// measure a settled envelope.
func BenchmarkSpeedupTransient_Disparity200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := benchUnbalanced(200)
		fd := 100e6 / 200
		if _, err := transient.Run(context.Background(), mix.Ckt, transient.Options{
			Method: repro.BE, TStop: 3 / fd, Step: 1 / 100e6 / 20, FixedStep: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDownconversionGain runs the pure-tone QPSS and extracts the gain
// figure (paper G1).
func BenchmarkDownconversionGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{})
		sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 40, N2: 32, Shear: mix.Shear})
		if err != nil {
			b.Fatal(err)
		}
		bb := sol.DifferentialBaseband(mix.OutP, mix.OutM)
		dt := mix.Shear.Td() / float64(len(bb))
		g, err := repro.MeasureConversionGain(bb, dt, math.Abs(mix.Shear.Fd()), mix.Cfg.RFAmp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.Ratio, "conv-gain")
	}
}

// BenchmarkAblationHBSwitchingMixer measures the harmonic-balance cost on
// the hard-switching mixer; compare with BenchmarkAblationMPDESwitchingMixer
// at matched accuracy — HB needs a large harmonic box for the switching
// waveform (the paper's core motivation).
func BenchmarkAblationHBSwitchingMixer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{
			F1: 100e6, Fd: 1e6, LOAmp: 0.6})
		if _, err := hb.Solve(context.Background(), mix.Ckt, hb.Options{
			F1: 100e6, F2: mix.Shear.F2, N1: 64, N2: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMPDESwitchingMixer is the time-domain counterpart.
func BenchmarkAblationMPDESwitchingMixer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{
			F1: 100e6, Fd: 1e6, LOAmp: 0.6})
		if _, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 64, N2: 4, Shear: mix.Shear}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrder1 vs Order2: cost of the second-order differences
// that DESIGN.md calls out (accuracy comparison lives in the core tests).
func BenchmarkAblationOrder1(b *testing.B) { benchOrder(b, repro.Order1) }

// BenchmarkAblationOrder2 is the second-order variant.
func BenchmarkAblationOrder2(b *testing.B) { benchOrder(b, repro.Order2) }

func benchOrder(b *testing.B, o repro.DiffOrder) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: 100e6, Fd: 1e6})
		if _, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 40, N2: 30, Shear: mix.Shear, DiffT1: o, DiffT2: o}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeFollowing measures the slow-time marching variant.
func BenchmarkEnvelopeFollowing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: 100e6, Fd: 1e6})
		if _, err := core.EnvelopeFollow(context.Background(), mix.Ckt, core.EnvelopeOptions{
			N1: 40, Shear: mix.Shear}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveVsFixedQPSS compares the paper's fixed 40×30 seed grid
// against reltol=1e-3 automatic grid sizing on the balanced-mixer deck.
// The adaptive run solves coarse 16×12, measures the spectral tail, and
// warm-starts one refined 32×24 solve: same figure accuracy on 768 instead
// of 1200 grid points.
func BenchmarkAdaptiveVsFixedQPSS(b *testing.B) {
	bits := repro.PRBS7(0x4D, 8)
	b.Run("fixed-40x30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
			sol, err := repro.MPDEQuasiPeriodicAdaptive(context.Background(), mix.Ckt,
				repro.MPDEOptions{N1: 40, N2: 30, Shear: mix.Shear}, repro.MPDEAccuracyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sol.N1*sol.N2), "grid-points")
		}
	})
	b.Run("adaptive-reltol-1e-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
			sol, err := repro.MPDEQuasiPeriodicAdaptive(context.Background(), mix.Ckt,
				repro.MPDEOptions{Shear: mix.Shear}, repro.MPDEAccuracyOptions{RelTol: 1e-3})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sol.N1*sol.N2), "grid-points")
			b.ReportMetric(float64(sol.Stats.Refinements), "refinements")
		}
	})
}

// BenchmarkAdaptiveEnvelopeLTE measures LTE-controlled envelope following
// against the fixed Td/30 march on the balanced mixer.
func BenchmarkAdaptiveEnvelopeLTE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{})
		res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
			Method:  "envelope",
			Circuit: mix.Ckt,
			Params: repro.EnvelopeParams{
				Shear: mix.Shear, T2Stop: mix.Shear.Td(),
				Accuracy: repro.AnalysisAccuracy{RelTol: 1e-3},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		st := res.Stats()
		b.ReportMetric(float64(st.AcceptedSteps), "accepted-steps")
		b.ReportMetric(float64(st.RejectedSteps), "rejected-steps")
	}
}
