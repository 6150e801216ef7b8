// Cross-method consistency suite: the paper's central claim is that the
// sheared-grid MPDE steady state computes the SAME answer as brute-force
// methods at a fraction of their cost. These tests pin that equivalence
// down quantitatively — MPDE QPSS, harmonic balance, shooting and a long
// settled transient must agree on the down-conversion gain and the output
// spectrum, within stated tolerances, for the paper's balanced mixer and
// for a linear RC control case (the time-domain-vs-frequency-domain
// cross-check pattern of blochsteady-style solver suites).
package repro_test

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/shooting"
	"repro/internal/transient"
)

// relErr returns |got−want| / |want|.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// fdAmplitude measures the spectral amplitude at fd of a uniform record
// spanning an integer number of difference periods.
func fdAmplitude(t *testing.T, vals []float64, dt, fd float64) float64 {
	t.Helper()
	sp := repro.NewSpectrum(vals, dt)
	a, _ := sp.AmplitudeAt(fd)
	return a
}

// TestConsistencyLinearRCTwoTone drives an RC low-pass with two closely
// spaced tones and checks every steady-state method against the exact
// transfer function: the tone at f1 must come out at |H(j2πf1)|, the tone
// at f2 at |H(j2πf2)|. A linear circuit leaves no modelling slack — any
// disagreement here is a solver bug, not a physics difference.
func TestConsistencyLinearRCTwoTone(t *testing.T) {
	f1 := 1e6
	fd := 1e5
	f2 := f1 - fd
	r, c := 1000.0, 1.0/(2*math.Pi*1e6*1000) // corner at 1 MHz
	sh := repro.NewShear(f1, f2, 1)
	build := func() *repro.Circuit {
		ckt := repro.NewCircuit("rc-two-tone")
		ckt.V("V1", "in", "0", repro.Sum{
			repro.Sine{Amp: 1, F1: f1, F2: f2, K1: 1},
			repro.Sine{Amp: 1, F1: f1, F2: f2, K2: 1},
		})
		ckt.R("R1", "in", "out", r)
		ckt.C("C1", "out", "0", c)
		return ckt
	}
	h := func(f float64) float64 {
		return 1 / math.Hypot(1, 2*math.Pi*f*r*c)
	}

	// MPDE QPSS on the sheared grid (second order for spectral accuracy).
	ckt1 := build()
	qpss, err := core.QPSS(context.Background(), ckt1, repro.MPDEOptions{
		N1: 32, N2: 32, Shear: sh, DiffT1: repro.Order2, DiffT2: repro.Order2})
	if err != nil {
		t.Fatal(err)
	}
	out1, _ := ckt1.NodeIndex("out")
	gq := qpss.Spectrum(out1)

	// Two-tone HB on the unsheared torus.
	ckt2 := build()
	hbs, err := hb.Solve(context.Background(), ckt2, hb.Options{F1: f1, F2: f2, N1: 16, N2: 8})
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := ckt2.NodeIndex("out")

	// Shooting across one full difference period (the two-tone waveform is
	// Td-periodic because f1 and f2 are commensurate: 10·Td = 10/fd).
	ckt3 := build()
	pss, err := shooting.PSS(context.Background(), ckt3, shooting.Options{
		Period: 1 / fd, Steps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	out3, _ := ckt3.NodeIndex("out")

	// Long transient: settle ≥ 5 RC time constants, measure the last Td.
	ckt4 := build()
	steps := 200 // per fast period
	step := 1 / f1 / float64(steps)
	tstop := 3 / fd
	tr, err := transient.Run(context.Background(), ckt4, transient.Options{
		Method: repro.TRAP, TStop: tstop, Step: step, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	out4, _ := ckt4.NodeIndex("out")

	// Per-tone amplitudes. On the sheared QPSS grid the f1 tone is mix
	// (1, 0) and the f2 tone (1, −1); on the unsheared HB torus they are
	// (1, 0) and (0, 1).
	cases := []struct {
		name     string
		freq     float64
		qpssAmp  float64
		hbAmp    float64
		analytic float64
	}{
		{"tone-f1", f1, gq.MixAmp(1, 0), hbs.HarmonicAmp(out2, 1, 0), h(f1)},
		{"tone-f2", f2, gq.MixAmp(1, -1), hbs.HarmonicAmp(out2, 0, 1), h(f2)},
	}
	// Shooting and transient see the superposition; measure each tone from
	// the record spectrum over one difference period.
	nS := 1024
	shootVals := make([]float64, nS)
	for k := 0; k < nS; k++ {
		shootVals[k] = pss.Orbit.X[k][out3]
	}
	dtS := (1 / fd) / float64(nS)
	trVals := make([]float64, nS)
	dst := make([]float64, len(tr.X[0]))
	dtT := (1 / fd) / float64(nS)
	for k := 0; k < nS; k++ {
		trVals[k] = tr.At(tstop-1/fd+float64(k)*dtT, dst)[out4]
	}
	for _, cse := range cases {
		shootAmp := fdAmplitude(t, shootVals, dtS, cse.freq)
		trAmp := fdAmplitude(t, trVals, dtT, cse.freq)
		for _, m := range []struct {
			method string
			amp    float64
			tol    float64
		}{
			// Spectral methods resolve the tones essentially exactly;
			// the fixed-step integrators carry O(h²) phase/amplitude error.
			{"qpss", cse.qpssAmp, 0.02},
			{"hb", cse.hbAmp, 0.005},
			{"shooting", shootAmp, 0.03},
			{"transient", trAmp, 0.03},
		} {
			if e := relErr(m.amp, cse.analytic); e > m.tol {
				t.Errorf("%s %s: amp %.6g vs analytic %.6g (rel err %.3g > tol %.3g)",
					cse.name, m.method, m.amp, cse.analytic, e, m.tol)
			}
		}
	}
}

// TestConsistencyBalancedMixerGain runs the paper's balanced LO-doubling
// mixer — scaled to a disparity of 100 so the brute-force baselines finish
// in test time — through the three time-domain routes and demands they
// agree on the down-conversion gain at fd. Harmonic balance is deliberately
// absent here: its GMRES stalls on this hard-switching doubling mixer even
// with large harmonic boxes, which is precisely the weakness that motivates
// the paper (the HB cross-check runs on the unbalanced mixer below, where
// HB converges).
func TestConsistencyBalancedMixerGain(t *testing.T) {
	f1, fd := 10e6, 100e3
	rfAmp := 0.05
	cfg := repro.BalancedMixerConfig{F1: f1, Fd: fd, RFAmp: rfAmp}
	td := 1 / fd

	// Route 1: MPDE QPSS, gain from the differential baseband.
	mixQ := repro.NewBalancedMixer(cfg)
	qpss, err := core.QPSS(context.Background(), mixQ.Ckt, repro.MPDEOptions{
		N1: 32, N2: 24, Shear: mixQ.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := qpss.DifferentialBaseband(mixQ.OutP, mixQ.OutM)
	gQ, err := repro.MeasureConversionGain(bb, td/float64(len(bb)), fd, rfAmp)
	if err != nil {
		t.Fatal(err)
	}

	// Route 2: shooting across one difference period, resolving the
	// doubled LO with 10 points per 2·f1 cycle.
	mixS := repro.NewBalancedMixer(cfg)
	steps := int(2 * f1 / fd * 10)
	pss, err := shooting.PSS(context.Background(), mixS.Ckt, shooting.Options{Period: td, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	sv := make([]float64, steps)
	for k := 0; k < steps; k++ {
		sv[k] = pss.Orbit.X[k][mixS.OutP] - pss.Orbit.X[k][mixS.OutM]
	}
	gainShoot := fdAmplitude(t, sv, td/float64(steps), fd) / rfAmp

	// Route 3: long transient, measuring the last of 3 difference periods.
	mixT := repro.NewBalancedMixer(cfg)
	step := td / float64(steps)
	tstop := 3 * td
	tr, err := transient.Run(context.Background(), mixT.Ckt, transient.Options{
		Method: repro.GEAR2, TStop: tstop, Step: step, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	tv := make([]float64, steps)
	dst := make([]float64, len(tr.X[0]))
	for k := 0; k < steps; k++ {
		x := tr.At(tstop-td+float64(k)*step, dst)
		tv[k] = x[mixT.OutP] - x[mixT.OutM]
	}
	gainTran := fdAmplitude(t, tv, step, fd) / rfAmp

	t.Logf("gain: qpss %.4f  shooting %.4f  transient %.4f",
		gQ.Ratio, gainShoot, gainTran)

	// The brute-force integrators are the reference for each other; the
	// coarse QPSS grid carries discretisation error on the switching
	// waveform. Tolerances state how closely each pair must agree.
	pairs := []struct {
		name string
		a, b float64
		tol  float64
	}{
		{"shooting-vs-transient", gainShoot, gainTran, 0.05},
		{"qpss-vs-shooting", gQ.Ratio, gainShoot, 0.10},
		{"qpss-vs-transient", gQ.Ratio, gainTran, 0.10},
	}
	for _, p := range pairs {
		if e := relErr(p.a, p.b); e > p.tol {
			t.Errorf("%s: %.5g vs %.5g (rel err %.3g > tol %.3g)", p.name, p.a, p.b, e, p.tol)
		}
	}
	if gQ.Ratio < 0.1 {
		t.Fatalf("implausibly small mixer gain %v", gQ.Ratio)
	}
}

// TestConsistencyUnbalancedMixerFourRoutes is the full four-way
// cross-check — MPDE QPSS, harmonic balance, shooting and long transient —
// on the unbalanced switching mixer, where HB's box truncation still
// converges (the A1 ablation configuration). All four must report the same
// down-conversion gain at fd.
func TestConsistencyUnbalancedMixerFourRoutes(t *testing.T) {
	f1, fd := 10e6, 100e3
	cfg := repro.UnbalancedMixerConfig{F1: f1, Fd: fd}
	td := 1 / fd

	mixQ := repro.NewUnbalancedMixer(cfg)
	rfAmp := mixQ.Cfg.RFAmp
	qpss, err := core.QPSS(context.Background(), mixQ.Ckt, repro.MPDEOptions{
		N1: 40, N2: 24, Shear: mixQ.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := qpss.BasebandMean(mixQ.Drain)
	gQ, err := repro.MeasureConversionGain(bb, td/float64(len(bb)), fd, rfAmp)
	if err != nil {
		t.Fatal(err)
	}

	mixH := repro.NewUnbalancedMixer(cfg)
	hbs, err := hb.Solve(context.Background(), mixH.Ckt, hb.Options{
		F1: f1, F2: mixH.Shear.F2, N1: 64, N2: 4})
	if err != nil {
		t.Fatal(err)
	}
	gainHB := cmplx.Abs(hbs.HarmonicPhasor(mixH.Drain, 1, -1)) / rfAmp

	mixS := repro.NewUnbalancedMixer(cfg)
	steps := int(f1 / fd * 10)
	pss, err := shooting.PSS(context.Background(), mixS.Ckt, shooting.Options{Period: td, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	sv := make([]float64, steps)
	for k := 0; k < steps; k++ {
		sv[k] = pss.Orbit.X[k][mixS.Drain]
	}
	gainShoot := fdAmplitude(t, sv, td/float64(steps), fd) / rfAmp

	mixT := repro.NewUnbalancedMixer(cfg)
	step := td / float64(steps)
	tstop := 3 * td
	tr, err := transient.Run(context.Background(), mixT.Ckt, transient.Options{
		Method: repro.GEAR2, TStop: tstop, Step: step, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	tv := make([]float64, steps)
	dst := make([]float64, len(tr.X[0]))
	for k := 0; k < steps; k++ {
		tv[k] = tr.At(tstop-td+float64(k)*step, dst)[mixT.Drain]
	}
	gainTran := fdAmplitude(t, tv, step, fd) / rfAmp

	t.Logf("gain: qpss %.4f  hb %.4f  shooting %.4f  transient %.4f",
		gQ.Ratio, gainHB, gainShoot, gainTran)

	pairs := []struct {
		name string
		a, b float64
		tol  float64
	}{
		{"shooting-vs-transient", gainShoot, gainTran, 0.05},
		{"qpss-vs-shooting", gQ.Ratio, gainShoot, 0.10},
		{"hb-vs-shooting", gainHB, gainShoot, 0.10},
		{"qpss-vs-hb", gQ.Ratio, gainHB, 0.10},
	}
	for _, p := range pairs {
		if e := relErr(p.a, p.b); e > p.tol {
			t.Errorf("%s: %.5g vs %.5g (rel err %.3g > tol %.3g)", p.name, p.a, p.b, e, p.tol)
		}
	}
	if gQ.Ratio < 0.1 {
		t.Fatalf("implausibly small mixer gain %v", gQ.Ratio)
	}
}

// TestConsistencyUnbalancedMixerSpectrum cross-checks the output SPECTRA
// of the two grid methods mix by mix: every dominant line of the QPSS
// drain spectrum must appear in the HB solution at the matching (k1, k2)
// with a consistent amplitude — the frequency-domain half of the td-vs-fd
// pattern.
func TestConsistencyUnbalancedMixerSpectrum(t *testing.T) {
	f1, fd := 10e6, 100e3
	cfg := repro.UnbalancedMixerConfig{F1: f1, Fd: fd}

	mixQ := repro.NewUnbalancedMixer(cfg)
	qpss, err := core.QPSS(context.Background(), mixQ.Ckt, repro.MPDEOptions{
		N1: 40, N2: 24, Shear: mixQ.Shear})
	if err != nil {
		t.Fatal(err)
	}
	gs := qpss.Spectrum(mixQ.Drain)

	mixH := repro.NewUnbalancedMixer(cfg)
	hbs, err := hb.Solve(context.Background(), mixH.Ckt, hb.Options{
		F1: f1, F2: mixH.Shear.F2, N1: 64, N2: 4})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, m := range gs.DominantMixes(6) {
		// Grid mix (k1, k2) sits at k1·f1 + k2·fd = (k1 + k2)·f1 − k2·f2 —
		// translate the sheared indices to the unsheared HB torus. The HB
		// box keeps |k2| ≤ N2/2 = 2; skip mixes it truncates away.
		h1, h2 := m.K1+m.K2, -m.K2
		if h2 < -1 || h2 > 1 {
			continue
		}
		checked++
		hbAmp := hbs.HarmonicAmp(mixH.Drain, h1, h2)
		if e := relErr(hbAmp, m.Amp); e > 0.15 {
			t.Errorf("mix (%d,%d) at %.4g Hz: qpss %.5g vs hb %.5g (rel err %.3g)",
				m.K1, m.K2, gs.MixFreq(m.K1, m.K2), m.Amp, hbAmp, e)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d comparable mixes — widen the HB box", checked)
	}
}
