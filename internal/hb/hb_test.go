package hb

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
)

func rcTwoTone(f1, f2 float64) (*circuit.Circuit, int, float64, float64) {
	r, c := 1000.0, 1.59155e-10
	ckt := circuit.New("hb-rc")
	ckt.V("V1", "in", "0", device.Sum{
		device.Sine{Amp: 1, F1: f1, F2: f2, K1: 1},
		device.Sine{Amp: 0.5, F1: f1, F2: f2, K2: 1},
	})
	ckt.R("R1", "in", "out", r)
	ckt.C("C1", "out", "0", c)
	ckt.Finalize()
	out, _ := ckt.NodeIndex("out")
	return ckt, out, r, c
}

func TestHBLinearTwoToneExact(t *testing.T) {
	// HB is spectrally exact for linear circuits with band-limited drive.
	f1, f2 := 1e6, 0.9e6
	ckt, out, r, c := rcTwoTone(f1, f2)
	sol, err := Solve(context.Background(), ckt, Options{F1: f1, F2: f2, N1: 8, N2: 8})
	if err != nil {
		t.Fatal(err)
	}
	gain := func(f float64) (float64, float64) {
		w := 2 * math.Pi * f
		return 1 / math.Sqrt(1+w*r*c*w*r*c), -math.Atan(w * r * c)
	}
	g1, p1 := gain(f1)
	g2, p2 := gain(f2)
	for p := 0; p < 100; p++ {
		tt := float64(p) * 1e-8
		want := g1*math.Cos(2*math.Pi*f1*tt+p1) + 0.5*g2*math.Cos(2*math.Pi*f2*tt+p2)
		got := sol.OneTime(out, tt)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("t=%g: hb %v vs analytic %v", tt, got, want)
		}
	}
}

func TestHBSingleTone(t *testing.T) {
	f1 := 1e6
	ckt := circuit.New("hb-1tone")
	ckt.V("V1", "in", "0", device.Sine{Amp: 1, F1: f1, K1: 1})
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1.59155e-10)
	sol, err := Solve(context.Background(), ckt, Options{F1: f1, N1: 16})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	if sol.N2 != 1 {
		t.Fatalf("single-tone should force N2=1, got %d", sol.N2)
	}
	a := sol.HarmonicAmp(out, 1, 0)
	w := 2 * math.Pi * f1 * 1000 * 1.59155e-10
	want := 1 / math.Sqrt(1+w*w)
	if math.Abs(a-want) > 1e-9 {
		t.Fatalf("fundamental amp %v, want %v", a, want)
	}
}

func TestHBIdealMixerDifferenceTone(t *testing.T) {
	// The multiplier generates the fd line at exactly (1, −1): HB must
	// recover amplitude R·Gm/2 (paper Eq. 6).
	m := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e9, F2: 1e9 - 1e4})
	sol, err := Solve(context.Background(), m.Ckt, Options{F1: 1e9, F2: 1e9 - 1e4, N1: 8, N2: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := sol.HarmonicAmp(m.Out, 1, -1)
	if math.Abs(a-0.5) > 1e-6 {
		t.Fatalf("difference tone amp %v, want 0.5", a)
	}
	// The sum tone (1, +1) must be present too.
	if s := sol.HarmonicAmp(m.Out, 1, 1); math.Abs(s-0.5) > 1e-6 {
		t.Fatalf("sum tone amp %v, want 0.5", s)
	}
}

func TestHBMatchesMPDEOnMildlyNonlinearMixer(t *testing.T) {
	// Cross-validate the two independent steady-state solvers on the same
	// unbalanced mixer at a gentle drive.
	um := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{
		F1: 100e6, Fd: 1e6, LOAmp: 0.3, RFAmp: 0.02})
	f2 := um.Shear.F2
	hbSol, err := Solve(context.Background(), um.Ckt, Options{F1: 100e6, F2: f2, N1: 32, N2: 6})
	if err != nil {
		t.Fatal(err)
	}
	mpde, err := core.QPSS(context.Background(), um.Ckt, core.Options{
		N1: 64, N2: 32, Shear: um.Shear, DiffT1: core.Order2, DiffT2: core.Order2})
	if err != nil {
		t.Fatal(err)
	}
	// Compare drain waveforms over 3 LO periods.
	maxErr, swing := 0.0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for p := 0; p < 300; p++ {
		tt := 3e-8 * float64(p) / 300
		a := hbSol.OneTime(um.Drain, tt)
		b := mpde.OneTime(um.Drain, tt)
		if e := math.Abs(a - b); e > maxErr {
			maxErr = e
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	swing = hi - lo
	if swing < 1e-3 {
		t.Fatalf("no signal to compare (swing %v)", swing)
	}
	if maxErr > 0.08*swing+1e-3 {
		t.Fatalf("HB vs MPDE disagree: max err %v on swing %v", maxErr, swing)
	}
}

func TestHBTruncationErrorGrowsWithSwitchingSharpness(t *testing.T) {
	// The paper's motivation: switching waveforms spread energy across many
	// LO harmonics. Drive the unbalanced mixer progressively harder and
	// watch the energy at the edge of the harmonic box grow.
	edge := func(loAmp float64) float64 {
		um := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{
			F1: 100e6, Fd: 1e6, LOAmp: loAmp, RFAmp: 0.01})
		sol, err := Solve(context.Background(), um.Ckt, Options{F1: 100e6, F2: um.Shear.F2, N1: 32, N2: 4})
		if err != nil {
			t.Fatalf("loAmp=%v: %v", loAmp, err)
		}
		return sol.MaxHarmonicBeyond(um.Drain, 10)
	}
	soft := edge(0.1)
	hard := edge(0.8)
	if hard < 3*soft {
		t.Fatalf("hard switching should leak into high harmonics: soft=%v hard=%v", soft, hard)
	}
}

func TestHBInvalidInputs(t *testing.T) {
	ckt := circuit.New("bad")
	ckt.V("V1", "a", "0", device.Pulse{V2: 1, Width: 1, Period: 2})
	ckt.R("R1", "a", "0", 50)
	if _, err := Solve(context.Background(), ckt, Options{F1: 1e6}); err == nil {
		t.Fatal("expected non-torus source error")
	}
	ckt2 := circuit.New("bad2")
	ckt2.R("R1", "a", "0", 50)
	if _, err := Solve(context.Background(), ckt2, Options{F1: 0}); err == nil {
		t.Fatal("expected F1 error")
	}
}

// countedSine counts its torus evaluations.
type countedSine struct {
	device.Sine
	calls *int
}

func (w countedSine) EvalTorus(th1, th2 float64) float64 {
	*w.calls++
	return w.Sine.EvalTorus(th1, th2)
}

// TestHBTabulatesSources: an HB solve evaluates each collocation point's
// waveforms once; every later residual and preconditioner build replays
// them.
func TestHBTabulatesSources(t *testing.T) {
	f1, f2 := 1e6, 0.9e6
	calls := 0
	ckt := circuit.New("hb-counted")
	ckt.V("V1", "in", "0", countedSine{device.Sine{Amp: 1, F1: f1, F2: f2, K1: 1}, &calls})
	ckt.R("R1", "in", "out", 1000)
	ckt.D("D1", "out", "0", 1e-14)
	ckt.C("C1", "out", "0", 1e-10)
	const n1, n2 = 16, 4
	sol, err := Solve(context.Background(), ckt, Options{F1: f1, F2: f2, N1: n1, N2: n2})
	if err != nil {
		t.Fatal(err)
	}
	if calls != n1*n2 {
		t.Fatalf("%d source evaluations over %d Newton iterations, want %d (one per point)", calls, sol.Stats.NewtonIters, n1*n2)
	}
}

// TestTracedSolveRecordsNoNewtonSpan: HB's Newton loop is its own and its
// DC start is auxiliary work Stats do not count, so a traced solve records
// no newton.solve span.
func TestTracedSolveRecordsNoNewtonSpan(t *testing.T) {
	f1, f2 := 1e6, 0.9e6
	ckt, _, _, _ := rcTwoTone(f1, f2)
	rec := obs.NewRecorder()
	if _, err := Solve(obs.WithRecorder(context.Background(), rec), ckt, Options{F1: f1, F2: f2, N1: 8, N2: 8}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range rec.Snapshot() {
		if sp.Name == "newton.solve" {
			t.Fatalf("traced HB solve recorded a newton.solve span: %+v", sp)
		}
	}
}

// TestOneTimeRecordMatchesOneTime: the record sums the same spectrum in the
// same order as OneTime, so every sample is bit-identical.
func TestOneTimeRecordMatchesOneTime(t *testing.T) {
	f1, f2 := 1e6, 0.9e6
	ckt, out, _, _ := rcTwoTone(f1, f2)
	sol, err := Solve(context.Background(), ckt, Options{F1: f1, F2: f2, N1: 8, N2: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]float64, 64)
	for i := range ts {
		ts[i] = float64(i) * 1.7e-8
	}
	for i, v := range sol.OneTimeRecord(out, ts) {
		if want := sol.OneTime(out, ts[i]); v != want {
			t.Fatalf("t=%g: record %v, OneTime %v", ts[i], v, want)
		}
	}
}

// TestHarmonicAmpSelfConjugateBin: a line at the θ2 Nyquist bin (0, N2/2)
// is its own conjugate, so HarmonicAmp reads its amplitude undoubled, as
// it does for an ordinary mix.
func TestHarmonicAmpSelfConjugateBin(t *testing.T) {
	const N1, N2, A = 8, 4, 0.5
	sol := &Solution{F1: 1e6, F2: 0.9e6, N1: N1, N2: N2, X: make([]float64, N1*N2), n: 1}
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			sol.X[j*N1+i] = A*float64(1-2*(j%2)) + A*math.Cos(2*math.Pi*float64(i)/N1)
		}
	}
	for _, mix := range [][2]int{{0, N2 / 2}, {1, 0}} {
		if a := sol.HarmonicAmp(0, mix[0], mix[1]); math.Abs(a-A) > 1e-12 {
			t.Errorf("HarmonicAmp%v = %v, want %v", mix, a, A)
		}
	}
}
