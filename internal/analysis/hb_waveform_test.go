package analysis

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/hb"
)

// TestHBWaveformAllocsFlat: the HB waveform transforms each probe leg's
// grid once and sums the series per sample, so its allocations do not
// grow with the sample count.
func TestHBWaveformAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	f1, f2 := 1e6, 0.9e6
	ckt := circuit.New("hb-rc")
	ckt.V("V1", "in", "0", device.Sum{
		device.Sine{Amp: 1, F1: f1, F2: f2, K1: 1},
		device.Sine{Amp: 0.5, F1: f1, F2: f2, K2: 1},
	})
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1.6e-10)
	sol, err := hb.Solve(context.Background(), ckt, hb.Options{F1: f1, F2: f2, N1: 8, N2: 8})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := ckt.NodeIndex("in")
	out, _ := ckt.NodeIndex("out")
	r := &hbResult{sol: sol, k: 1, n: ckt.Size()}
	probe := Probe{P: in, M: out}
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() { r.waveform(probe, 1e-5, samples) })
	}
	few, many := allocs(256), allocs(4096)
	t.Logf("allocs/waveform: %v at 256 samples, %v at 4096", few, many)
	if many > few {
		t.Fatalf("allocs/waveform grow with the sample count: %v at 256 samples, %v at 4096", few, many)
	}
}
