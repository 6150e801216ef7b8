package rf

import (
	"math"
	"sync"
	"testing"
)

func TestPRBS7PeriodAndBalance(t *testing.T) {
	bits := PRBS7(0x5A, 254)
	// Maximal-length: period 127.
	for i := 0; i < 127; i++ {
		if bits[i] != bits[i+127] {
			t.Fatalf("PRBS7 period violated at %d", i)
		}
	}
	ones := 0
	for _, b := range bits[:127] {
		if b {
			ones++
		}
	}
	if ones != 64 { // 2^6 ones in one period of x^7 m-sequence
		t.Fatalf("PRBS7 ones = %d, want 64", ones)
	}
	// Zero seed must still produce a nonzero sequence.
	z := PRBS7(0, 10)
	any := false
	for _, b := range z {
		if b {
			any = true
		}
	}
	if !any {
		t.Fatal("zero seed produced all-zero PRBS")
	}
}

func TestBitEnvelopeLevelsAndPeriodicity(t *testing.T) {
	bits := []bool{true, false, true, true}
	env := BitEnvelope(bits, 0.1)
	// Sample bit centres.
	for i, b := range bits {
		u := (float64(i) + 0.5) / 4
		want := -1.0
		if b {
			want = 1
		}
		if math.Abs(env(u)-want) > 1e-9 {
			t.Fatalf("bit %d level = %v, want %v", i, env(u), want)
		}
	}
	if math.Abs(env(0.125)-env(1.125)) > 1e-12 {
		t.Fatal("envelope not 1-periodic")
	}
	// Transition smoothness: value strictly inside (−1, 1) mid-edge.
	v := env(0.25 + 0.0125) // start of bit 1's slot within the edge width
	if v <= -1 || v >= 1 {
		t.Fatalf("edge not smoothed: %v", v)
	}
}

func TestBitEnvelopeEmptyBits(t *testing.T) {
	env := BitEnvelope(nil, 0.1)
	if env(0.3) != 1 {
		t.Fatal("empty bits should give unit envelope")
	}
}

func TestSpectrumSingleTone(t *testing.T) {
	n := 1024
	fs := 1e6
	f0 := fs * 32 / float64(n) // exactly bin 32
	x := make([]float64, n)
	for i := range x {
		x[i] = 2.5 * math.Cos(2*math.Pi*f0*float64(i)/fs)
	}
	sp := NewSpectrum(x, 1/fs)
	a, bf := sp.AmplitudeAt(f0)
	if math.Abs(a-2.5) > 1e-9 {
		t.Fatalf("amplitude = %v, want 2.5", a)
	}
	if math.Abs(bf-f0) > 1e-6 {
		t.Fatalf("bin freq = %v, want %v", bf, f0)
	}
}

func TestDB(t *testing.T) {
	if DB(10) != 20 {
		t.Fatalf("DB(10) = %v", DB(10))
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -Inf")
	}
}

func TestMeasureConversionGain(t *testing.T) {
	// Synthetic baseband: 0.4·cos(2π·fd·t) + 0.04·cos(2π·2fd·t), RF amp 0.8.
	fd := 1e4
	n := 1024
	dt := 1 / (fd * float64(n) / 4) // 4 difference periods in the record
	x := make([]float64, n)
	for i := range x {
		tt := float64(i) * dt
		x[i] = 0.4*math.Cos(2*math.Pi*fd*tt) + 0.04*math.Cos(2*math.Pi*2*fd*tt)
	}
	g, err := MeasureConversionGain(x, dt, fd, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Ratio-0.5) > 1e-6 {
		t.Fatalf("gain ratio = %v, want 0.5", g.Ratio)
	}
	if math.Abs(g.DB-DB(0.5)) > 1e-9 {
		t.Fatalf("gain dB = %v", g.DB)
	}
	if math.Abs(g.HD2-0.1) > 1e-6 {
		t.Fatalf("HD2 = %v, want 0.1", g.HD2)
	}
	if _, err := MeasureConversionGain(x, dt, fd, 0); err == nil {
		t.Fatal("expected error for zero RF amplitude")
	}
}

func TestMeasureEye(t *testing.T) {
	bits := []bool{true, false, true, false}
	n := 400
	baseband := make([]float64, n)
	env := BitEnvelope(bits, 0.05)
	for i := range baseband {
		baseband[i] = 0.3 * env(float64(i)/float64(n))
	}
	eye := MeasureEye(baseband, bits)
	if !eye.Open {
		t.Fatalf("eye should be open: %+v", eye)
	}
	if eye.MinHigh < 0.25 || eye.MaxLow > -0.25 {
		t.Fatalf("levels wrong: %+v", eye)
	}
	// A destroyed eye (all zeros) must not report open separation.
	flat := MeasureEye(make([]float64, n), bits)
	if flat.Open {
		t.Fatal("flat waveform cannot have an open eye")
	}
}

func TestMeasureIntermodSynthetic(t *testing.T) {
	// Two fundamentals of 1.0 at bins fa, fb and IM3 products of 0.01.
	n := 4096
	dt := 1.0
	fa := 40.0 / float64(n)
	fb := 50.0 / float64(n)
	x := make([]float64, n)
	for i := range x {
		tt := float64(i)
		x[i] = math.Cos(2*math.Pi*fa*tt) + math.Cos(2*math.Pi*fb*tt) +
			0.01*math.Cos(2*math.Pi*(2*fa-fb)*tt) + 0.01*math.Cos(2*math.Pi*(2*fb-fa)*tt)
	}
	m, err := MeasureIntermod(x, dt, fa, fb, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Fund1-1) > 1e-6 || math.Abs(m.Fund2-1) > 1e-6 {
		t.Fatalf("fundamentals %v %v", m.Fund1, m.Fund2)
	}
	if math.Abs(m.IM3Lo-0.01) > 1e-6 || math.Abs(m.IM3Hi-0.01) > 1e-6 {
		t.Fatalf("IM3 %v %v", m.IM3Lo, m.IM3Hi)
	}
	if math.Abs(m.IM3dBc+40) > 0.1 {
		t.Fatalf("IM3dBc = %v, want -40", m.IM3dBc)
	}
	// IIP3 = 0.5 · 10^(40/40) = 5.
	if math.Abs(m.IIP3-5) > 0.05 {
		t.Fatalf("IIP3 = %v, want 5", m.IIP3)
	}
}

func TestMeasureIntermodErrors(t *testing.T) {
	if _, err := MeasureIntermod([]float64{1}, 1, 0.1, 0.1, 1); err == nil {
		t.Fatal("identical tones should error")
	}
	if _, err := MeasureIntermod(make([]float64, 64), 1, 0.1, 0.2, 1); err == nil {
		t.Fatal("zero fundamental should error")
	}
}

// TestNewSpectrumConcurrentUse computes spectra from concurrent goroutines,
// as concurrent sweep jobs do: they share plans through the process-wide
// FFT plan table, and every spectrum must match the serial one bit for bit.
// Run it under -race.
func TestNewSpectrumConcurrentUse(t *testing.T) {
	lengths := []int{500, 2000, 1024}
	record := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(2*math.Pi*7*float64(i)/float64(n)) + 0.25*math.Cos(2*math.Pi*31*float64(i)/float64(n))
		}
		return x
	}
	want := make([]Spectrum, len(lengths))
	for i, n := range lengths {
		want[i] = NewSpectrum(record(n), 1e-9)
	}
	const goroutines = 4
	errs := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				i := (g + rep) % len(lengths)
				got := NewSpectrum(record(lengths[i]), 1e-9)
				for k := range got.Amp {
					if math.Float64bits(got.Amp[k]) != math.Float64bits(want[i].Amp[k]) {
						errs[g] = "amplitude differs from the serial spectrum"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
}
