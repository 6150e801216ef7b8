package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/transient"
)

// twoToneRC builds an RC low-pass driven by the sum of two closely spaced
// tones and returns the circuit plus element values.
func twoToneRC(sh Shear, amp1, amp2 float64) (*circuit.Circuit, float64, float64) {
	r, c := 1000.0, 1.59155e-10 // corner ≈ 1 MHz
	ckt := circuit.New("twotone-rc")
	ckt.V("V1", "in", "0", device.Sum{
		device.Sine{Amp: amp1, F1: sh.F1, F2: sh.F2, K1: 1, K2: 0},
		device.Sine{Amp: amp2, F1: sh.F1, F2: sh.F2, K1: 0, K2: 1},
	})
	ckt.R("R1", "in", "out", r)
	ckt.C("C1", "out", "0", c)
	return ckt, r, c
}

func rcResponse(r, c, f, amp float64) (gain, phase float64) {
	w := 2 * math.Pi * f
	gain = amp / math.Sqrt(1+w*r*c*w*r*c)
	phase = -math.Atan(w * r * c)
	return gain, phase
}

func TestQPSSLinearTwoToneMatchesAnalytic(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1} // fd = 100 kHz, disparity 10
	ckt, r, c := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 48, N2: 48, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	g1, p1 := rcResponse(r, c, sh.F1, 1)
	g2, p2 := rcResponse(r, c, sh.F2, 1)
	// Compare the one-time reconstruction against the analytic steady state
	// over one difference period.
	maxErr := 0.0
	for p := 0; p < 500; p++ {
		tt := sh.Td() * float64(p) / 500
		want := g1*math.Cos(2*math.Pi*sh.F1*tt+p1) + g2*math.Cos(2*math.Pi*sh.F2*tt+p2)
		got := sol.OneTime(out, tt)
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.06 {
		t.Fatalf("max one-time error %v vs analytic (gains %v, %v)", maxErr, g1, g2)
	}
}

func TestQPSSOrder2BeatsOrder1(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	measure := func(o DiffOrder) float64 {
		ckt, r, c := twoToneRC(sh, 1, 1)
		sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 32, Shear: sh, DiffT1: o, DiffT2: o})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := ckt.NodeIndex("out")
		g1, p1 := rcResponse(r, c, sh.F1, 1)
		g2, p2 := rcResponse(r, c, sh.F2, 1)
		maxErr := 0.0
		for p := 0; p < 300; p++ {
			tt := sh.Td() * float64(p) / 300
			want := g1*math.Cos(2*math.Pi*sh.F1*tt+p1) + g2*math.Cos(2*math.Pi*sh.F2*tt+p2)
			if e := math.Abs(sol.OneTime(out, tt) - want); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}
	e1, e2 := measure(Order1), measure(Order2)
	if e2 >= e1 {
		t.Fatalf("Order2 error (%v) should beat Order1 (%v)", e2, e1)
	}
}

func TestQPSSIdealMixerBaseband(t *testing.T) {
	// Multiplier mixer: v(out) = R·Gm·v(lo)·v(rf); the t1-averaged output
	// must be (R·Gm/2)·cos(2π·fd·t2) — the paper's Eq. (6) difference tone.
	sh := Shear{F1: 1e9, F2: 1e9 - 1e4, K: 1} // the paper's Fig. 1/2 tones
	ckt := circuit.New("ideal-mixer")
	ckt.V("VLO", "lo", "0", device.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K1: 1})
	ckt.V("VRF", "rf", "0", device.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K2: 1})
	ckt.R("RL", "out", "0", 1000)
	ckt.Mult("X1", "out", "lo", "rf", 1e-3) // R·Gm = 1
	sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 48, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	bb := sol.BasebandMean(out)
	t2 := sol.T2Axis()
	for j := 0; j < len(bb); j += 5 {
		want := 0.5 * math.Cos(2*math.Pi*math.Abs(sh.Fd())*t2[j])
		if math.Abs(bb[j]-want) > 0.02 {
			t.Fatalf("baseband[%d] = %v, want %v", j, bb[j], want)
		}
	}
}

func TestQPSSDiagonalMatchesTransientNonlinear(t *testing.T) {
	// A single-MOSFET downconversion mixer at modest disparity so brute
	// transient is affordable; compare the diagonal reconstruction against
	// the settled transient.
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1} // fd = 125 kHz, disparity 8
	build := func() *circuit.Circuit {
		ckt := circuit.New("mos-mixer")
		ckt.V("VDD", "vdd", "0", device.DC(3))
		ckt.V("VLO", "lo", "0", device.Sum{
			device.DC(0.9),
			device.Sine{Amp: 0.5, F1: sh.F1, F2: sh.F2, K1: 1},
		})
		ckt.V("VRF", "rfs", "0", device.Sine{Amp: 0.1, F1: sh.F1, F2: sh.F2, K2: 1})
		// RF couples into the source of the device through a resistor.
		ckt.R("RS", "rfs", "s", 200)
		ckt.M("M1", "d", "lo", "s", device.MOSFET{Vt0: 0.5, KP: 2e-3})
		ckt.R("RD", "vdd", "d", 2e3)
		ckt.C("CD", "d", "0", 4e-10) // baseband load, filters RF
		return ckt
	}
	ckt := build()
	sol, err := QPSS(context.Background(), ckt, Options{N1: 48, N2: 32, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force transient: integrate 6 difference periods, compare the
	// last one.
	ckt2 := build()
	tr, err := transient.Run(context.Background(), ckt2, transient.Options{
		Method: transient.GEAR2, TStop: 6 * sh.Td(),
		Step: sh.T1() / 100, FixedStep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ckt.NodeIndex("d")
	// The drain carries a baseband beat; compare at matching absolute times
	// (both start from the same phase reference t=0 and Td is a common
	// period of the quasi-periodic solution's envelope).
	maxErr, swing := 0.0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for p := 0; p < 200; p++ {
		tt := 5*sh.Td() + sh.Td()*float64(p)/200
		ref := tr.At(tt, nil)[d]
		got := sol.OneTime(d, tt)
		if e := math.Abs(got - ref); e > maxErr {
			maxErr = e
		}
		if ref < lo {
			lo = ref
		}
		if ref > hi {
			hi = ref
		}
	}
	swing = hi - lo
	if swing < 0.05 {
		t.Fatalf("test circuit produces no beat (swing %v) — not a useful check", swing)
	}
	if maxErr > 0.15*swing {
		t.Fatalf("diagonal reconstruction error %v exceeds 15%% of swing %v", maxErr, swing)
	}
}

func TestQPSSResidualSmallAtSolution(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 0.5)
	opt := Options{N1: 24, N2: 24, Shear: sh}
	sol, err := QPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.ResidualCheck(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-6 {
		t.Fatalf("MPDE residual at solution: %v", res)
	}
}

func TestQPSSRejectsNonTorusSources(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt := circuit.New("bad")
	ckt.V("V1", "a", "0", device.Pulse{V2: 1, Width: 1, Period: 2})
	ckt.R("R1", "a", "0", 50)
	_, err := QPSS(context.Background(), ckt, Options{Shear: sh})
	if !errors.Is(err, ErrNonTorusSource) {
		t.Fatalf("expected ErrNonTorusSource, got %v", err)
	}
}

func TestQPSSRejectsBadShearAndX0(t *testing.T) {
	ckt, _, _ := twoToneRC(Shear{F1: 1e6, F2: 0.9e6, K: 1}, 1, 1)
	if _, err := QPSS(context.Background(), ckt, Options{Shear: Shear{}}); err == nil {
		t.Fatal("expected shear validation error")
	}
	ckt2, _, _ := twoToneRC(Shear{F1: 1e6, F2: 0.9e6, K: 1}, 1, 1)
	_, err := QPSS(context.Background(), ckt2, Options{Shear: Shear{F1: 1e6, F2: 0.9e6, K: 1}, X0: []float64{1}})
	if err == nil {
		t.Fatal("expected X0 size error")
	}
}

func TestQPSSWarmStartFewerIterations(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	opt := Options{N1: 24, N2: 24, Shear: sh}
	sol, err := QPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	ckt2, _, _ := twoToneRC(sh, 1, 1)
	opt2 := opt
	opt2.X0 = sol.X
	sol2, err := QPSS(context.Background(), ckt2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Stats.NewtonIters > sol.Stats.NewtonIters {
		t.Fatalf("warm start took %d iters vs cold %d", sol2.Stats.NewtonIters, sol.Stats.NewtonIters)
	}
}

func TestQPSSSurfaceAndSliceShapes(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 16, N2: 12, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	surf := sol.Surface(out)
	if len(surf) != 16 || len(surf[0]) != 12 {
		t.Fatalf("surface shape %dx%d", len(surf), len(surf[0]))
	}
	if len(sol.T1Axis()) != 16 || len(sol.T2Axis()) != 12 {
		t.Fatal("axis lengths")
	}
	rip := sol.BasebandRipple(out)
	for _, v := range rip {
		if v < 0 {
			t.Fatal("ripple must be non-negative")
		}
	}
	ts, vs := sol.ReconstructOneTime(out, 0, 5*sh.T1(), 100)
	if len(ts) != 100 || len(vs) != 100 {
		t.Fatal("reconstruction lengths")
	}
}

func TestEnvelopeFollowApproachesQPSS(t *testing.T) {
	// For a stable linear circuit the envelope-following trajectory settles
	// onto the quasi-periodic steady state within a few difference periods.
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 32, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	ckt2, _, _ := twoToneRC(sh, 1, 1)
	env, err := EnvelopeFollow(context.Background(), ckt2, EnvelopeOptions{
		N1: 32, Shear: sh, T2Stop: 3 * sh.Td(), StepT2: sh.Td() / 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	bbQ := sol.BasebandMean(out)
	bbE := env.Baseband(out)
	// Compare the last difference period of the envelope run against the
	// QPSS baseband at matching t2 phases.
	nLast := 0
	maxErr := 0.0
	for j, t2 := range env.T2 {
		if t2 < 2*sh.Td() {
			continue
		}
		phase := math.Mod(t2, sh.Td()) / sh.Td()
		jq := int(phase*float64(len(bbQ))+0.5) % len(bbQ)
		if e := math.Abs(bbE[j] - bbQ[jq]); e > maxErr {
			maxErr = e
		}
		nLast++
	}
	if nLast < 5 {
		t.Fatal("too few comparison points")
	}
	if maxErr > 0.05 {
		t.Fatalf("envelope vs QPSS baseband error %v", maxErr)
	}
}

func TestEnvelopeFollowRejectsBadInput(t *testing.T) {
	ckt, _, _ := twoToneRC(Shear{F1: 1e6, F2: 0.9e6, K: 1}, 1, 1)
	if _, err := EnvelopeFollow(context.Background(), ckt, EnvelopeOptions{Shear: Shear{}}); err == nil {
		t.Fatal("expected shear error")
	}
}
