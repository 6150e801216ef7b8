package pac

import (
	"context"
	"math"
	"testing"

	"repro/internal/ac"
	"repro/internal/circuit"
	"repro/internal/device"
)

func TestPACStaticCircuitMatchesAC(t *testing.T) {
	// For a time-invariant circuit the PAC response collapses to ordinary
	// AC at the stimulus frequency, with zero conversion to other sidebands.
	build := func() *circuit.Circuit {
		ckt := circuit.New("static")
		ckt.V("V1", "in", "0", device.DC(0))
		ckt.R("R1", "in", "out", 1000)
		ckt.C("C1", "out", "0", 1e-9)
		return ckt
	}
	fs := []float64{1e4, 1.5915e5, 1e6}
	ckt := build()
	res, err := Analyze(context.Background(), ckt, Options{
		Period: 1e-6, Steps: 64, Source: "V1", Freqs: fs})
	if err != nil {
		t.Fatal(err)
	}
	ckt2 := build()
	acRes, err := ac.Analyze(context.Background(), ckt2, ac.Options{Source: "V1", Freqs: fs})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	out2, _ := ckt2.NodeIndex("out")
	for f := range fs {
		pacG := res.SidebandAmp(f, out, 0)
		acG := acRes.Gain(out2)[f]
		if math.Abs(pacG-acG) > 0.02*acG+1e-9 {
			t.Fatalf("fs=%g: PAC %v vs AC %v", fs[f], pacG, acG)
		}
		// No conversion in a static circuit.
		if c := res.SidebandAmp(f, out, -1); c > 1e-8 {
			t.Fatalf("static circuit converts: %v", c)
		}
	}
}

func TestPACIdealMixerConversionGain(t *testing.T) {
	// Multiplier pumped by the LO at f0; a small stimulus on the RF port
	// converts to sidebands ±1 with gain R·Gm·A_LO/2 = 0.5.
	f0 := 1e8
	ckt := circuit.New("pac-mixer")
	ckt.V("VLO", "lo", "0", device.Sine{Amp: 1, F1: f0, K1: 1})
	ckt.V("VRF", "rf", "0", device.DC(0))
	ckt.R("RL", "out", "0", 1000)
	ckt.Mult("X1", "out", "lo", "rf", 1e-3)
	res, err := Analyze(context.Background(), ckt, Options{
		Period: 1 / f0, Steps: 128, Source: "VRF", Freqs: []float64{1.3e6}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	up := res.SidebandAmp(0, out, +1)
	dn := res.SidebandAmp(0, out, -1)
	if math.Abs(up-0.5) > 0.02 || math.Abs(dn-0.5) > 0.02 {
		t.Fatalf("conversion gains up=%v dn=%v, want 0.5", up, dn)
	}
	// Direct feedthrough at fs is zero for an ideal multiplier with a
	// zero-mean LO.
	if d := res.SidebandAmp(0, out, 0); d > 0.01 {
		t.Fatalf("direct feedthrough %v, want ≈0", d)
	}
	// The RF port itself passes the stimulus straight through.
	rfn, _ := ckt.NodeIndex("rf")
	if d := res.SidebandAmp(0, rfn, 0); math.Abs(d-1) > 1e-6 {
		t.Fatalf("stimulus node envelope %v, want 1", d)
	}
}

func TestPACSwitchingMixerHasLOSidebands(t *testing.T) {
	// A real MOSFET mixer pumped hard: conversion gain to the −1 sideband
	// must be significant, and higher sidebands decay.
	f0 := 1e8
	ckt := circuit.New("pac-mos")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VLO", "lo", "0", device.Sum{
		device.DC(0.9), device.Sine{Amp: 0.6, F1: f0, K1: 1}})
	ckt.V("VRF", "rfs", "0", device.DC(0))
	ckt.R("RS", "rfs", "s", 200)
	ckt.M("M1", "d", "lo", "s", device.MOSFET{Vt0: 0.5, KP: 2e-3})
	ckt.R("RD", "vdd", "d", 2e3)
	ckt.C("CD", "d", "0", 2e-12)
	res, err := Analyze(context.Background(), ckt, Options{
		Period: 1 / f0, Steps: 256, Source: "VRF", Freqs: []float64{1e6}})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ckt.NodeIndex("d")
	conv := res.SidebandAmp(0, d, -1)
	if conv < 0.05 {
		t.Fatalf("down-conversion gain %v too small", conv)
	}
	far := res.SidebandAmp(0, d, -7)
	if far > conv {
		t.Fatalf("sideband 7 (%v) should be weaker than sideband 1 (%v)", far, conv)
	}
}

func TestPACInvalidInputs(t *testing.T) {
	ckt := circuit.New("bad")
	ckt.V("V1", "a", "0", device.DC(0))
	ckt.R("R1", "a", "0", 50)
	if _, err := Analyze(context.Background(), ckt, Options{Period: 0, Source: "V1", Freqs: []float64{1}}); err == nil {
		t.Fatal("zero period should error")
	}
	ckt2 := circuit.New("bad2")
	ckt2.V("V1", "a", "0", device.DC(0))
	ckt2.R("R1", "a", "0", 50)
	if _, err := Analyze(context.Background(), ckt2, Options{Period: 1e-6, Source: "V1"}); err == nil {
		t.Fatal("missing freqs should error")
	}
	ckt3 := circuit.New("bad3")
	ckt3.V("V1", "a", "0", device.DC(0))
	ckt3.R("R1", "a", "0", 50)
	if _, err := Analyze(context.Background(), ckt3, Options{Period: 1e-6, Source: "nope", Freqs: []float64{1}}); err == nil {
		t.Fatal("unknown source should error")
	}
	ckt4 := circuit.New("bad4")
	ckt4.V("V1", "a", "0", device.DC(0))
	ckt4.R("R1", "a", "0", 50)
	if _, err := Analyze(context.Background(), ckt4, Options{Period: 1e-6, Source: "R1", Freqs: []float64{1}}); err == nil {
		t.Fatal("non-source should error")
	}
}
