package ckts

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/rf"
	"repro/internal/solver"
	"repro/internal/transient"
)

func TestIdealMixerProductExact(t *testing.T) {
	m := NewIdealMixer(IdealMixerConfig{F1: 1e9, F2: 1e9 - 1e4})
	// Transient over a few carrier cycles: out must equal R·Gm·lo·rf.
	res, err := transient.Run(context.Background(), m.Ckt, transient.Options{
		Method: transient.TRAP, TStop: 3e-9, Step: 1e-11, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range res.T {
		lo := math.Cos(2 * math.Pi * 1e9 * tt)
		rfv := math.Cos(2 * math.Pi * (1e9 - 1e4) * tt)
		want := lo * rfv // R·Gm = 1
		if math.Abs(res.X[k][m.Out]-want) > 1e-6 {
			t.Fatalf("t=%g: out=%v want %v", tt, res.X[k][m.Out], want)
		}
	}
}

func TestBalancedMixerTrueBiasSymmetric(t *testing.T) {
	m := NewBalancedMixer(BalancedMixerConfig{})
	x, _, err := transient.DC(context.Background(), m.Ckt, transient.DCOptions{SignalsOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[m.OutP]-x[m.OutM]) > 1e-6 {
		t.Fatalf("bias asymmetry: outp=%v outm=%v", x[m.OutP], x[m.OutM])
	}
	// Outputs must sit between the tail and VDD with headroom.
	if x[m.OutP] < 1.5 || x[m.OutP] > 2.95 {
		t.Fatalf("output bias %v out of range", x[m.OutP])
	}
	if x[m.Tail] < 0.3 || x[m.Tail] > 1.5 {
		t.Fatalf("tail bias %v out of range", x[m.Tail])
	}
}

func TestBalancedMixerDoublerProducesEvenHarmonics(t *testing.T) {
	// Run one LO period of transient with RF amplitude zero: the tail node
	// must move at 2·f1 (two peaks per LO period), the signature of the
	// frequency doubler.
	cfg := BalancedMixerConfig{RFAmp: 1e-12}
	m := NewBalancedMixer(cfg)
	f1 := m.Cfg.F1
	res, err := transient.Run(context.Background(), m.Ckt, transient.Options{
		Method: transient.GEAR2, TStop: 8 / f1, Step: 1 / f1 / 200, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sample the settled final period and Fourier-analyse the tail voltage.
	n := 256
	dt := 1 / f1 / float64(n)
	tail := make([]float64, n)
	buf := make([]float64, m.Ckt.Size())
	for i := 0; i < n; i++ {
		tail[i] = res.At(7/f1+float64(i)*dt, buf)[m.Tail]
	}
	sp := rf.NewSpectrum(tail, dt)
	a1, _ := sp.AmplitudeAt(f1)
	a2, _ := sp.AmplitudeAt(2 * f1)
	if a2 < 5*a1 {
		t.Fatalf("tail should be dominated by 2·f1: |H1|=%v |H2|=%v", a1, a2)
	}
	if a2 < 1e-3 {
		t.Fatalf("doubler produces no 2·f1 content: %v", a2)
	}
}

func TestBalancedMixerQPSSDownconvertsPureTone(t *testing.T) {
	// Pure-tone RF at 2·f1 − fd: the differential baseband must carry a
	// clean fd tone with measurable conversion gain.
	m := NewBalancedMixer(BalancedMixerConfig{})
	sol, err := core.QPSS(context.Background(), m.Ckt, core.Options{N1: 32, N2: 24, Shear: m.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := sol.DifferentialBaseband(m.OutP, m.OutM)
	dt := m.Shear.Td() / float64(len(bb))
	g, err := rf.MeasureConversionGain(bb, dt, math.Abs(m.Shear.Fd()), m.Cfg.RFAmp)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ratio < 0.2 {
		t.Fatalf("conversion gain ratio %v too small — mixer not mixing", g.Ratio)
	}
	if g.HD2 > 0.5 {
		t.Fatalf("baseband badly distorted: HD2 = %v", g.HD2)
	}
}

func TestBalancedMixerQPSSBitStream(t *testing.T) {
	// Bit-modulated RF (paper Fig. 3/4): the baseband envelope must track
	// the bit pattern with an open eye.
	bits := rf.PRBS7(0x11, 8)
	m := NewBalancedMixer(BalancedMixerConfig{Bits: bits})
	sol, err := core.QPSS(context.Background(), m.Ckt, core.Options{N1: 32, N2: 48, Shear: m.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := sol.DifferentialBaseband(m.OutP, m.OutM)
	// Remove the mean (the bit envelope is ±1 around the bias).
	mean := 0.0
	for _, v := range bb {
		mean += v
	}
	mean /= float64(len(bb))
	ac := make([]float64, len(bb))
	for i, v := range bb {
		ac[i] = v - mean
	}
	// The differential sense inverts the envelope (RF+ drives the device
	// whose drain is out+), so accept either polarity.
	eye := rf.MeasureEye(ac, bits)
	if !eye.Open {
		neg := make([]float64, len(ac))
		for i, v := range ac {
			neg[i] = -v
		}
		eye = rf.MeasureEye(neg, bits)
	}
	if !eye.Open {
		t.Fatalf("baseband eye closed in both polarities: %+v (baseband %v)", eye, ac)
	}
}

func TestUnbalancedMixerDownconverts(t *testing.T) {
	m := NewUnbalancedMixer(UnbalancedMixerConfig{F1: 100e6, Fd: 1e4})
	sol, err := core.QPSS(context.Background(), m.Ckt, core.Options{N1: 32, N2: 24, Shear: m.Shear})
	if err != nil {
		t.Fatal(err)
	}
	bb := sol.BasebandMean(m.Drain)
	dt := m.Shear.Td() / float64(len(bb))
	// Strip the DC bias before measuring the fd tone.
	mean := 0.0
	for _, v := range bb {
		mean += v
	}
	mean /= float64(len(bb))
	ac := make([]float64, len(bb))
	for i, v := range bb {
		ac[i] = v - mean
	}
	sp := rf.NewSpectrum(ac, dt)
	a, _ := sp.AmplitudeAt(m.Cfg.Fd)
	if a < 1e-3 {
		t.Fatalf("no difference tone at drain: %v", a)
	}
}

func TestRCLowpassAndRectifierBuilders(t *testing.T) {
	ckt, out := RCLowpass(device.DC(1), 1e3, 1e-9)
	if out < 0 || ckt.Size() < 2 {
		t.Fatal("RCLowpass malformed")
	}
	ckt2, out2 := DiodeRectifier(device.Sine{Amp: 5, F1: 1e3, K1: 1}, 1e4, 1e-6)
	if out2 < 0 || ckt2.Size() < 3 {
		t.Fatal("DiodeRectifier malformed")
	}
	x, _, err := transient.DC(context.Background(), ckt, transient.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[out]-1) > 1e-6 {
		t.Fatalf("RC DC out = %v", x[out])
	}
}

func TestBalancedMixerShearMatchesPaper(t *testing.T) {
	m := NewBalancedMixer(BalancedMixerConfig{})
	if m.Shear.K != 2 {
		t.Fatalf("K = %d, want 2 (LO doubling)", m.Shear.K)
	}
	if math.Abs(m.Shear.Fd()-15e3) > 1e-6 {
		t.Fatalf("fd = %v, want 15 kHz", m.Shear.Fd())
	}
	if math.Abs(m.Shear.Disparity()-30000) > 1 {
		t.Fatalf("disparity = %v, want 30000", m.Shear.Disparity())
	}
}

// TestBalancedMixerMatrixFreeOffPaperDeck solves the balanced mixer direct
// and matrix-free on decks away from the paper's 450 MHz / 15 kHz, where
// the slow axis couples the lines strongly: higher difference frequencies
// and an Order2 slow-axis stencil. The line-sweep preconditioner keeps
// GMRES to a handful of iterations per solve with no direct rescue, and the
// matrix-free grid lands on the direct one.
func TestBalancedMixerMatrixFreeOffPaperDeck(t *testing.T) {
	for _, d := range []struct {
		f1, fd float64
		n1, n2 int
		order  core.DiffOrder
	}{
		{10e6, 100e3, 40, 30, core.Order1},
		{10e6, 100e3, 40, 30, core.Order2},
		{450e6, 1.5e6, 64, 48, core.Order1},
		{450e6, 15e6, 64, 48, core.Order1},
	} {
		solve := func(linear solver.LinearSolverKind) *core.Solution {
			t.Helper()
			m := NewBalancedMixer(BalancedMixerConfig{F1: d.f1, Fd: d.fd})
			opt := core.Options{N1: d.n1, N2: d.n2, Shear: m.Shear, DiffT1: d.order, DiffT2: d.order}
			opt.Newton.Linear = linear
			sol, err := core.QPSS(context.Background(), m.Ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			return sol
		}
		direct, mf := solve(solver.DirectSparse), solve(solver.MatrixFree)
		maxDiff := 0.0
		for i := range mf.X {
			maxDiff = math.Max(maxDiff, math.Abs(mf.X[i]-direct.X[i]))
		}
		st := mf.Stats
		name := fmt.Sprintf("%g/%g Hz %dx%d order %d", d.f1, d.fd, d.n1, d.n2, d.order)
		t.Logf("%s: %d GMRES iterations, max|ΔX| = %.3g", name, st.LinearIters, maxDiff)
		if st.LinearIters > 12 || st.GMRESFallbacks != 0 {
			t.Errorf("%s: %d GMRES iterations and %d fallbacks, want ≤ 12 and 0", name, st.LinearIters, st.GMRESFallbacks)
		}
		if maxDiff > 1e-10 {
			t.Errorf("%s: matrix-free grid deviates from direct by %v", name, maxDiff)
		}
	}
}
