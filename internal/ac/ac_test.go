package ac

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

func rcCkt() *circuit.Circuit {
	ckt := circuit.New("ac-rc")
	ckt.V("V1", "in", "0", device.DC(0))
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1e-6) // corner ≈ 159.2 Hz
	return ckt
}

func TestACRCLowpassMatchesAnalytic(t *testing.T) {
	ckt := rcCkt()
	freqs := LogSweep(1, 1e5, 60)
	res, err := Analyze(context.Background(), ckt, Options{Source: "V1", Freqs: freqs})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	for k, f := range freqs {
		w := 2 * math.Pi * f * 1000 * 1e-6
		wantG := 1 / math.Sqrt(1+w*w)
		wantP := -math.Atan(w) * 180 / math.Pi
		if math.Abs(res.Gain(out)[k]-wantG) > 1e-9 {
			t.Fatalf("f=%g: gain %v want %v", f, res.Gain(out)[k], wantG)
		}
		if ph := cmplx.Phase(res.X[k][out]) * 180 / math.Pi; math.Abs(ph-wantP) > 1e-6 {
			t.Fatalf("f=%g: phase %v want %v", f, ph, wantP)
		}
	}
}

func TestACCorner3dB(t *testing.T) {
	ckt := rcCkt()
	res, err := Analyze(context.Background(), ckt, Options{Source: "V1", Freqs: LogSweep(1, 1e5, 200)})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	fc, err := res.Corner3dB(out)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2 * math.Pi * 1000 * 1e-6)
	if math.Abs(fc-want)/want > 0.01 {
		t.Fatalf("corner %v, want %v", fc, want)
	}
}

func TestACRLCResonance(t *testing.T) {
	// Series RLC driven by V, output across C: peak near f0 = 1/(2π√LC).
	ckt := circuit.New("rlc")
	ckt.V("V1", "in", "0", device.DC(0))
	ckt.R("R1", "in", "a", 10)
	ckt.L("L1", "a", "out", 1e-3)
	ckt.C("C1", "out", "0", 1e-9) // f0 ≈ 159.2 kHz, Q = √(L/C)/R = 100
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-3*1e-9))
	freqs := []float64{f0 / 10, f0, f0 * 10}
	res, err := Analyze(context.Background(), ckt, Options{Source: "V1", Freqs: freqs})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	g := res.Gain(out)
	// At resonance the capacitor voltage is Q× the drive.
	if g[1] < 50 || g[1] > 150 {
		t.Fatalf("resonant gain %v, want ≈100", g[1])
	}
	if g[0] < 0.9 || g[0] > 1.1 {
		t.Fatalf("low-frequency gain %v, want ≈1", g[0])
	}
	if g[2] > 0.2 {
		t.Fatalf("high-frequency gain %v, want ≪1", g[2])
	}
}

func TestACCommonSourceAmpGain(t *testing.T) {
	// MOSFET common-source: small-signal gain −gm·RD with gm = KP·vov.
	ckt := circuit.New("cs-ac")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VG", "g", "0", device.DC(1)) // vov = 0.5
	ckt.R("RD", "vdd", "d", 10e3)
	ckt.M("M1", "d", "g", "0", device.MOSFET{Vt0: 0.5, KP: 2e-4})
	res, err := Analyze(context.Background(), ckt, Options{Source: "VG", Freqs: []float64{1e3}})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ckt.NodeIndex("d")
	gm := 2e-4 * 0.5
	want := gm * 10e3
	got := res.Gain(d)[0]
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("|gain| = %v, want %v", got, want)
	}
	// Phase must be 180° (inverting).
	ph := math.Abs(cmplx.Phase(res.X[0][d]) * 180 / math.Pi)
	if math.Abs(ph-180) > 1e-6 {
		t.Fatalf("phase %v, want ±180", ph)
	}
}

func TestACCurrentSourceStimulus(t *testing.T) {
	// 1 A AC into R ∥ C: |Z| at DC-ish frequency ≈ R.
	ckt := circuit.New("iz")
	ckt.I("I1", "0", "out", device.DC(0)) // injects into out
	ckt.R("R1", "out", "0", 50)
	ckt.C("C1", "out", "0", 1e-12)
	res, err := Analyze(context.Background(), ckt, Options{Source: "I1", Freqs: []float64{1e3}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	if math.Abs(res.Gain(out)[0]-50) > 1e-6 {
		t.Fatalf("|Z| = %v, want 50", res.Gain(out)[0])
	}
}

func TestACErrors(t *testing.T) {
	ckt := rcCkt()
	if _, err := Analyze(context.Background(), ckt, Options{Freqs: []float64{1}}); err == nil {
		t.Fatal("missing source should error")
	}
	ckt2 := rcCkt()
	if _, err := Analyze(context.Background(), ckt2, Options{Source: "V1"}); err == nil {
		t.Fatal("missing freqs should error")
	}
	ckt3 := rcCkt()
	if _, err := Analyze(context.Background(), ckt3, Options{Source: "V1", Freqs: []float64{0}}); err == nil {
		t.Fatal("zero frequency should error")
	}
	ckt4 := rcCkt()
	if _, err := Analyze(context.Background(), ckt4, Options{Source: "nope", Freqs: []float64{1}}); err == nil {
		t.Fatal("unknown source should error")
	}
	ckt5 := rcCkt()
	if _, err := Analyze(context.Background(), ckt5, Options{Source: "R1", Freqs: []float64{1}}); err == nil {
		t.Fatal("non-source device should error")
	}
	ckt6 := rcCkt()
	if _, err := Analyze(context.Background(), ckt6, Options{Source: "V1", Freqs: []float64{1}, X0: []float64{1}}); err == nil {
		t.Fatal("bad X0 size should error")
	}
}

func TestLogSweep(t *testing.T) {
	f := LogSweep(1, 100, 3)
	if len(f) != 3 || f[0] != 1 || math.Abs(f[1]-10) > 1e-12 || math.Abs(f[2]-100) > 1e-12 {
		t.Fatalf("LogSweep = %v", f)
	}
	if got := LogSweep(1, 10, 1); len(got) != 2 {
		t.Fatal("nPts clamp")
	}
}

func TestCorner3dBErrors(t *testing.T) {
	r := &Result{Freqs: []float64{1}, X: [][]complex128{{1}}}
	if _, err := r.Corner3dB(0); err == nil {
		t.Fatal("single point should error")
	}
	// Flat response never crosses −3 dB.
	r2 := &Result{Freqs: []float64{1, 10, 100},
		X: [][]complex128{{1}, {1}, {1}}}
	if _, err := r2.Corner3dB(0); err == nil {
		t.Fatal("flat response should error")
	}
}
