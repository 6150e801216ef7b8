// Cross-module integration tests on the facade's circuits and result types,
// solved by the analysis functions directly: every test here chains at
// least two analyses or validates one solver against another, so a
// regression anywhere in the stack (devices → MNA → Newton → analysis)
// surfaces at this level too.
package repro_test

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro"
	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/pac"
	"repro/internal/shooting"
	"repro/internal/transient"
)

func TestFacadeDCTransientShootingAgree(t *testing.T) {
	// A driven RC: the shooting orbit must agree with the settled transient
	// and start from the DC-consistent manifold.
	build := func() *repro.Circuit {
		ckt := repro.NewCircuit("rc")
		ckt.V("V1", "in", "0", repro.Sine{Amp: 1, F1: 1e4, K1: 1})
		ckt.R("R1", "in", "out", 1000)
		ckt.C("C1", "out", "0", 1e-8)
		return ckt
	}
	ckt := build()
	pss, err := shooting.PSS(context.Background(), ckt, shooting.Options{Period: 1e-4, Steps: 256})
	if err != nil {
		t.Fatal(err)
	}
	ckt2 := build()
	tr, err := transient.Run(context.Background(), ckt2, transient.Options{
		Method: repro.TRAP, TStop: 2e-3, Step: 1e-7, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	for k := 0; k <= 8; k++ {
		phase := float64(k) / 8 * 1e-4
		ref := tr.At(1.9e-3+phase, nil)[out]
		got := pss.Orbit.At(phase, nil)[out]
		if math.Abs(got-ref) > 0.01 {
			t.Fatalf("phase %v: shooting %v vs transient %v", phase, got, ref)
		}
	}
}

func TestFacadeMPDEvsHBvsShootingTriangle(t *testing.T) {
	// Three independent steady-state solvers on one weakly nonlinear
	// circuit: a diode-loaded RC driven by a single tone. MPDE (degenerate
	// two-tone), HB (single tone), and shooting must agree.
	f1 := 1e6
	build := func() *repro.Circuit {
		ckt := repro.NewCircuit("tri")
		ckt.V("V1", "in", "0", repro.Sum{
			repro.DC(0.3),
			repro.Sine{Amp: 0.3, F1: f1, F2: 0.9 * f1, K1: 1},
		})
		ckt.R("R1", "in", "a", 500)
		ckt.D("D1", "a", "0", 1e-12)
		ckt.C("C1", "a", "0", 1e-10)
		return ckt
	}
	sh := repro.NewShear(f1, 0.9*f1, 1)

	ckt1 := build()
	mpde, err := core.QPSS(context.Background(), ckt1, repro.MPDEOptions{
		N1: 64, N2: 4, Shear: sh, DiffT1: repro.Order2, DiffT2: repro.Order2})
	if err != nil {
		t.Fatal(err)
	}
	ckt2 := build()
	hbs, err := hb.Solve(context.Background(), ckt2, hb.Options{F1: f1, N1: 64})
	if err != nil {
		t.Fatal(err)
	}
	ckt3 := build()
	pss, err := shooting.PSS(context.Background(), ckt3, shooting.Options{Period: 1 / f1, Steps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := ckt1.NodeIndex("a")
	a3, _ := ckt3.NodeIndex("a")
	for p := 0; p < 40; p++ {
		tt := float64(p) / 40 / f1
		vm := mpde.OneTime(a1, tt)
		vh := hbs.OneTime(a1, tt)
		vs := pss.Orbit.At(tt, nil)[a3]
		if math.Abs(vm-vh) > 0.01 || math.Abs(vm-vs) > 0.01 {
			t.Fatalf("t=%g: mpde %v hb %v shooting %v", tt, vm, vh, vs)
		}
	}
}

func TestFacadeNetlistToMPDEPipeline(t *testing.T) {
	deck := `
.title unbalanced mixer from a deck
.tones 100e6 99e6
VDD vdd 0 DC 3
VLO lo 0 SIN 0.9 0.6 100e6
VRF rfs 0 SIN 0 0.05 99e6
RS rfs s 200
M1 d lo s VT=0.5 KP=2m
RD vdd d 2k
CD d 0 20p
.end
`
	d, err := repro.ParseNetlistString(deck)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := d.Shear()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.QPSS(context.Background(), d.Ckt, repro.MPDEOptions{N1: 32, N2: 16, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	dn, _ := d.Ckt.NodeIndex("d")
	bb := sol.BasebandMean(dn)
	lo, hi := bb[0], bb[0]
	for _, v := range bb {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 1e-3 {
		t.Fatalf("netlist-driven mixer shows no baseband beat: swing %v", hi-lo)
	}
}

func TestFacadeACMatchesMPDESmallSignalGain(t *testing.T) {
	// The down-conversion path aside, AC at fd must match the MPDE
	// solution's small-signal response for a linear network.
	ckt := repro.NewCircuit("ac-vs-mpde")
	sh := repro.NewShear(1e6, 0.9e6, 1)
	ckt.V("V1", "in", "0", repro.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K2: 1})
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1.59155e-10)
	sol, err := core.QPSS(context.Background(), ckt, repro.MPDEOptions{
		N1: 32, N2: 64, Shear: sh, DiffT1: repro.Order2, DiffT2: repro.Order2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	g := sol.Spectrum(out)
	// The RF tone lives at grid mix (K, −1) = (1, −1).
	mpdeGain := g.MixAmp(1, -1)

	ckt2 := repro.NewCircuit("ac")
	ckt2.V("V1", "in", "0", repro.DC(0))
	ckt2.R("R1", "in", "out", 1000)
	ckt2.C("C1", "out", "0", 1.59155e-10)
	res, err := ac.Analyze(context.Background(), ckt2, ac.Options{Source: "V1", Freqs: []float64{0.9e6}})
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := ckt2.NodeIndex("out")
	acGain := res.Gain(out2)[0]
	if math.Abs(mpdeGain-acGain) > 0.01 {
		t.Fatalf("MPDE gain %v vs AC gain %v", mpdeGain, acGain)
	}
}

func TestFacadeEnvelopeTracksBitTransition(t *testing.T) {
	// Envelope following on the balanced mixer resolves the baseband's
	// settling toward the quasi-periodic orbit.
	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{})
	env, err := core.EnvelopeFollow(context.Background(), mix.Ckt, core.EnvelopeOptions{
		N1: 24, Shear: mix.Shear, T2Stop: mix.Shear.Td() / 2,
		StepT2: mix.Shear.Td() / 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(env.T2) < 10 {
		t.Fatalf("too few envelope points: %d", len(env.T2))
	}
	bb := env.Baseband(mix.OutP)
	for _, v := range bb {
		if v < 0 || v > 3 {
			t.Fatalf("envelope out of rails: %v", v)
		}
	}
}

func TestFacadeSpectrumIdentifiesMixerProducts(t *testing.T) {
	mix := repro.NewIdealMixer(repro.IdealMixerConfig{F1: 1e9, F2: 1e9 - 1e4})
	sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
		N1: 16, N2: 16, Shear: mix.Shear})
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Spectrum(mix.Out)
	top := g.DominantMixes(2)
	// Products at (0,1) [difference] and (2,−1) [sum] dominate.
	found := map[[2]int]bool{}
	for _, m := range top {
		found[[2]int{m.K1, m.K2}] = true
	}
	if !found[[2]int{0, 1}] || !found[[2]int{2, -1}] {
		t.Fatalf("expected difference and sum products, got %+v", top)
	}
}

func TestFacadeErrorMessagesActionable(t *testing.T) {
	// A user driving MPDE with a transient-only source must get an error
	// that names the offending source.
	ckt := repro.NewCircuit("bad")
	ckt.V("VPULSE", "a", "0", repro.Pulse{V2: 1, Width: 1, Period: 2})
	ckt.R("R1", "a", "0", 50)
	_, err := core.QPSS(context.Background(), ckt, repro.MPDEOptions{
		Shear: repro.NewShear(1e6, 0.9e6, 1)})
	if err == nil || !strings.Contains(err.Error(), "VPULSE") {
		t.Fatalf("error should name the source: %v", err)
	}
}

func TestFacadeTwoToneIntermodOnBalancedMixer(t *testing.T) {
	// Classic two-tone test, run entirely through the MPDE grid: two RF
	// tones near 2·f1 (at 2f1−3fd and 2f1−4fd) down-convert to baseband
	// tones at 3fd and 4fd; third-order nonlinearity produces IM3 products
	// at 2fd and 5fd. Every frequency involved is an integer mix of the two
	// torus tones, so the sheared grid captures the whole test in one solve
	// — no third time axis needed.
	f1, fd := 450e6, 15e3
	f2 := 2*f1 - fd
	sh := repro.NewShear(f1, f2, 2)
	amp := 0.12

	ckt := repro.NewCircuit("im3-mixer")
	ckt.V("VDD", "vdd", "0", repro.DC(3))
	lo := repro.Sine{Amp: 0.45, F1: f1, F2: f2, K1: 1}
	loNeg := lo
	loNeg.Amp = -lo.Amp
	ckt.V("VLOP", "lop", "0", repro.Sum{repro.DC(0.65), lo})
	ckt.V("VLOM", "lom", "0", repro.Sum{repro.DC(0.65), loNeg})
	// Tones at f2−2fd = 3f2−4f1 → (−4, 3) and f2−3fd = 4f2−6f1 → (−6, 4).
	toneA := repro.Sine{Amp: amp, F1: f1, F2: f2, K1: -4, K2: 3}
	toneB := repro.Sine{Amp: amp, F1: f1, F2: f2, K1: -6, K2: 4}
	toneANeg, toneBNeg := toneA, toneB
	toneANeg.Amp, toneBNeg.Amp = -amp, -amp
	ckt.V("VRFP", "rfp", "0", repro.Sum{repro.DC(1.8), toneA, toneB})
	ckt.V("VRFM", "rfm", "0", repro.Sum{repro.DC(1.8), toneANeg, toneBNeg})
	ckt.R("RLP", "vdd", "outp", 2e3)
	ckt.R("RLM", "vdd", "outm", 2e3)
	ckt.C("CLP", "outp", "0", 40/(2e3*f1))
	ckt.C("CLM", "outm", "0", 40/(2e3*f1))
	ckt.M("M1", "outp", "rfp", "tail", repro.MOSFET{Vt0: 0.5, KP: 4e-3})
	ckt.M("M2", "outm", "rfm", "tail", repro.MOSFET{Vt0: 0.5, KP: 4e-3})
	ckt.M("M3", "tail", "lop", "0", repro.MOSFET{Vt0: 0.5, KP: 4e-3})
	ckt.M("M4", "tail", "lom", "0", repro.MOSFET{Vt0: 0.5, KP: 4e-3})
	ckt.C("CT", "tail", "0", 2e-13)

	sol, err := core.QPSS(context.Background(), ckt, repro.MPDEOptions{
		N1: 40, N2: 32, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	outP, _ := ckt.NodeIndex("outp")
	outM, _ := ckt.NodeIndex("outm")
	bb := sol.DifferentialBaseband(outP, outM)
	mean := 0.0
	for _, v := range bb {
		mean += v
	}
	mean /= float64(len(bb))
	ac := make([]float64, len(bb))
	for i, v := range bb {
		ac[i] = v - mean
	}
	dt := sh.Td() / float64(len(bb))
	im, err := repro.MeasureIntermod(ac, dt, 3*fd, 4*fd, amp)
	if err != nil {
		t.Fatal(err)
	}
	// Both fundamentals must down-convert with similar gain.
	if im.Fund1 < 0.01 || im.Fund2 < 0.01 {
		t.Fatalf("fundamentals missing: %+v", im)
	}
	ratio := im.Fund1 / im.Fund2
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("fundamental imbalance: %+v", im)
	}
	// IM3 must exist (the mixer is nonlinear at 120 mV drive) but sit well
	// below the carriers.
	if im.IM3dBc > -10 {
		t.Fatalf("IM3 too strong: %+v", im)
	}
	if im.IM3Lo == 0 && im.IM3Hi == 0 {
		t.Fatalf("no IM3 measured — drive harder or grid too small: %+v", im)
	}
}

func TestFacadePACMatchesMPDEConversionGain(t *testing.T) {
	// Two fully independent routes to the mixer's down-conversion gain:
	// (a) large-signal MPDE QPSS with a small pure RF tone, measuring the
	//     baseband fd line; (b) periodic AC around the LO-pumped PSS,
	//     reading the conversion gain to the −1 sideband of the doubled LO
	//     (k = −2 of f1). At small RF drive they must agree.
	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{RFAmp: 0.01})
	sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
		N1: 40, N2: 32, Shear: mix.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := sol.DifferentialBaseband(mix.OutP, mix.OutM)
	dt := mix.Shear.Td() / float64(len(bb))
	g, err := repro.MeasureConversionGain(bb, dt, math.Abs(mix.Shear.Fd()), 0.01)
	if err != nil {
		t.Fatal(err)
	}

	// PAC route: pump with the LO only (RF sources at DC bias), stimulate
	// the RF+ port differentially. Build the same mixer with a dedicated
	// small-signal port: stimulus on VRFP only gives half the differential
	// drive, so the differential gain doubles back.
	mix2 := repro.NewBalancedMixer(repro.BalancedMixerConfig{RFAmp: 1e-15})
	res, err := pac.Analyze(context.Background(), mix2.Ckt, pac.Options{
		Period: 1 / 450e6, Steps: 128, Source: "VRFP",
		Freqs: []float64{900e6 - 15e3}})
	if err != nil {
		t.Fatal(err)
	}
	// Output sideband at fs − 2·f0 = −fd: the differential phasor response.
	xp := res.SidebandPhasor(0, mix2.OutP, -2)
	xm := res.SidebandPhasor(0, mix2.OutM, -2)
	pacDiff := cmplx.Abs(xp - xm)
	// MPDE drove differentially with ±RFAmp (differential amplitude
	// 2·RFAmp) and the measured ratio is referenced to RFAmp, so the
	// differential gain is Ratio/2; PAC's single-port stimulus already is
	// a unit differential drive.
	mpdeDiffGain := g.Ratio / 2
	if math.Abs(pacDiff-mpdeDiffGain) > 0.25*mpdeDiffGain {
		t.Fatalf("PAC differential gain %v vs MPDE differential gain %v", pacDiff, mpdeDiffGain)
	}
}
