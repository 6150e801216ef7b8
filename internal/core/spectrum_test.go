package core

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

func TestGridSpectrumIdealMixerLines(t *testing.T) {
	// z = cos(2πθ1)·cos(2πθ2) on the sheared grid decomposes into exactly
	// two mixes: (1−K, +1) and (1+K, −1) in (f1, fd) coordinates; with
	// K = 1 those are (0, 1) — the difference tone — and (2, −1) — the sum
	// tone folded through the shear. Each has amplitude ½.
	sh := Shear{F1: 1e9, F2: 1e9 - 1e4, K: 1}
	ckt := circuit.New("spec-mixer")
	ckt.V("VLO", "lo", "0", device.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K1: 1})
	ckt.V("VRF", "rf", "0", device.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K2: 1})
	ckt.R("RL", "out", "0", 1000)
	ckt.Mult("X1", "out", "lo", "rf", 1e-3)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 32, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	g := sol.Spectrum(out)
	if a := g.MixAmp(0, 1); math.Abs(a-0.5) > 0.02 {
		t.Fatalf("difference mix (0,1) amp %v, want 0.5", a)
	}
	if a := g.MixAmp(2, -1); math.Abs(a-0.5) > 0.02 {
		t.Fatalf("sum mix (2,−1) amp %v, want 0.5", a)
	}
	// Frequencies: (0,1) is fd; (2,−1) is 2f1 − fd = f1 + f2.
	if f := g.MixFreq(0, 1); math.Abs(f-1e4) > 1 {
		t.Fatalf("MixFreq(0,1) = %v, want 1e4", f)
	}
	if f := g.MixFreq(2, -1); math.Abs(f-(2e9-1e4)) > 1 {
		t.Fatalf("MixFreq(2,-1) = %v", f)
	}
	// Nothing else significant.
	for _, m := range g.DominantMixes(6)[2:] {
		if m.Amp > 0.02 {
			t.Fatalf("unexpected mix (%d,%d) amp %v", m.K1, m.K2, m.Amp)
		}
	}
}

func TestGridSpectrumDominantOrdering(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 0.25)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 32, Shear: sh, DiffT1: Order2, DiffT2: Order2})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := ckt.NodeIndex("in")
	g := sol.Spectrum(in)
	top := g.DominantMixes(2)
	if len(top) != 2 {
		t.Fatalf("want 2 mixes, got %d", len(top))
	}
	if top[0].Amp < top[1].Amp {
		t.Fatal("DominantMixes not sorted")
	}
	// The drive has amp-1 LO at (1,0) and amp-0.25 RF; the RF in sheared
	// grid coordinates is (K, −1) = (1, −1).
	if top[0].K1 != 1 || top[0].K2 != 0 {
		t.Fatalf("top mix (%d,%d), want (1,0)", top[0].K1, top[0].K2)
	}
	if math.Abs(top[0].Amp-1) > 0.01 {
		t.Fatalf("LO amp %v, want 1", top[0].Amp)
	}
	if top[1].K1 != 1 || top[1].K2 != -1 {
		t.Fatalf("second mix (%d,%d), want (1,−1)", top[1].K1, top[1].K2)
	}
	if math.Abs(top[1].Amp-0.25) > 0.01 {
		t.Fatalf("RF amp %v, want 0.25", top[1].Amp)
	}
}

func TestGridSpectrumDCValue(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt := circuit.New("dcgrid")
	ckt.V("V1", "a", "0", device.DC(2.5))
	ckt.R("R1", "a", "0", 100)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 8, N2: 8, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ckt.NodeIndex("a")
	g := sol.Spectrum(a)
	if math.Abs(g.MixAmp(0, 0)-2.5) > 1e-9 {
		t.Fatalf("DC mix %v, want 2.5", g.MixAmp(0, 0))
	}
}

// torusSamples fills an N1×N2 single-unknown grid with f(i, j).
func torusSamples(N1, N2 int, f func(i, j int) float64) []float64 {
	x := make([]float64, N1*N2)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			x[j*N1+i] = f(i, j)
		}
	}
	return x
}

// TestGridSpectrumSelfConjugateBins: a Nyquist line on either axis or both
// is its own conjugate, so it reads its amplitude undoubled; an ordinary
// mix folds in its partner; and a line in the k1 = N1/2 column, whose two
// conjugate bins both have k1 > 0, is listed once.
func TestGridSpectrumSelfConjugateBins(t *testing.T) {
	const N1, N2, A = 8, 6, 0.75
	sign := func(k int) float64 { return 1 - 2*float64(k%2) }
	for _, c := range []struct {
		name   string
		k1, k2 int
		f      func(i, j int) float64
	}{
		{"(0,N2/2)", 0, N2 / 2, func(i, j int) float64 { return A * sign(j) }},
		{"(N1/2,0)", N1 / 2, 0, func(i, j int) float64 { return A * sign(i) }},
		{"(N1/2,N2/2)", N1 / 2, N2 / 2, func(i, j int) float64 { return A * sign(i+j) }},
		{"(1,2)", 1, 2, func(i, j int) float64 {
			return A * math.Cos(2*math.Pi*(float64(i)/N1+2*float64(j)/N2))
		}},
		{"(N1/2,1)", N1 / 2, 1, func(i, j int) float64 {
			return A * sign(i) * math.Cos(2*math.Pi*float64(j)/N2)
		}},
	} {
		g := NewGridSpectrum(torusSamples(N1, N2, c.f), 1, N1, N2, 0, -1, 1, 1)
		if a := g.MixAmp(c.k1, c.k2); math.Abs(a-A) > 1e-12 {
			t.Errorf("%s: MixAmp %v, want %v", c.name, a, A)
		}
		if a := cmplx.Abs(g.Phasor(c.k1, c.k2)); math.Abs(a-A) > 1e-12 {
			t.Errorf("%s: |Phasor| %v, want %v", c.name, a, A)
		}
		top := g.DominantMixes(3)
		if top[0].K1 != c.k1 || top[0].K2 != c.k2 || math.Abs(top[0].Amp-A) > 1e-12 || top[1].Amp > 1e-12 {
			t.Errorf("%s: DominantMixes %+v, want the one line at amplitude %v", c.name, top, A)
		}
	}
}

// TestDominantMixesAllocs: a listing allocates its result and nothing else.
func TestDominantMixesAllocs(t *testing.T) {
	const N1, N2 = 40, 30
	x := torusSamples(N1, N2, func(i, j int) float64 {
		return math.Sin(float64(3*i+7*j)) + 0.1*float64(i*j%5)
	})
	g := NewGridSpectrum(x, 1, N1, N2, 0, -1, 1, 1)
	if a := testing.AllocsPerRun(20, func() { g.DominantMixes(12) }); a != 1 {
		t.Fatalf("allocs per listing = %v, want 1", a)
	}
}
