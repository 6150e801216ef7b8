package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		s := complex(0, 0)
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// forward, inverse, forward2D and inverse2D are one-shot plan transforms
// into a copy of x.
func forward(x []complex128) []complex128 {
	p := NewPlan(len(x))
	y := append([]complex128(nil), x...)
	p.Forward(y, make([]complex128, p.ScratchLen()))
	return y
}

func inverse(x []complex128) []complex128 {
	p := NewPlan(len(x))
	y := append([]complex128(nil), x...)
	p.Inverse(y, make([]complex128, p.ScratchLen()))
	return y
}

func forward2D(x []complex128, n1, n2 int) []complex128 {
	p := NewPlan2D(n1, n2)
	y := append([]complex128(nil), x...)
	p.Forward(y, make([]complex128, p.ScratchLen()))
	return y
}

func inverse2D(x []complex128, n1, n2 int) []complex128 {
	p := NewPlan2D(n1, n2)
	y := append([]complex128(nil), x...)
	p.Inverse(y, make([]complex128, p.ScratchLen()))
	return y
}

// forwardReal is the DFT of a real signal.
func forwardReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return forward(c)
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestForwardMatchesNaivePow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(rng, n)
		if e := maxErr(forward(x), naiveDFT(x)); e > 1e-9 {
			t.Fatalf("n=%d: max error %v", n, e)
		}
	}
}

func TestForwardMatchesNaiveArbitraryN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 9, 12, 15, 30, 31, 40, 100} {
		x := randComplex(rng, n)
		if e := maxErr(forward(x), naiveDFT(x)); e > 1e-8 {
			t.Fatalf("n=%d (Bluestein): max error %v", n, e)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := randComplex(rng, n)
		y := inverse(forward(x))
		return maxErr(x, y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		x := randComplex(rng, n)
		X := forward(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		ef /= float64(n)
		return math.Abs(et-ef) < 1e-8*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = 2*x[i] - 3*y[i]
		}
		X, Y, Z := forward(x), forward(y), forward(z)
		for i := range Z {
			if cmplx.Abs(Z[i]-(2*X[i]-3*Y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMagnitudesCosine(t *testing.T) {
	// cos(2π·5·t/64) sampled at 64 points → magnitude 1 at bin 5.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 5 * float64(i) / float64(n))
	}
	mag := Magnitudes(forwardReal(x))
	if math.Abs(mag[5]-1) > 1e-10 {
		t.Fatalf("bin 5 magnitude = %v, want 1", mag[5])
	}
	for k, m := range mag {
		if k != 5 && m > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", k, m)
		}
	}
}

func TestMagnitudesDCAndNyquist(t *testing.T) {
	n := 8
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 // DC level 3
		if i%2 == 1 {
			x[i] -= 2 // plus Nyquist-rate square alternation of amplitude 1
		} else {
			x[i] += 2
		}
	}
	mag := Magnitudes(forwardReal(x))
	if math.Abs(mag[0]-3) > 1e-12 {
		t.Fatalf("DC magnitude = %v, want 3", mag[0])
	}
	if math.Abs(mag[n/2]-2) > 1e-12 {
		t.Fatalf("Nyquist magnitude = %v, want 2", mag[n/2])
	}
}

func TestForward2DSeparableTones(t *testing.T) {
	n1, n2 := 8, 16
	x := make([]complex128, n1*n2)
	// exp(2πi(3 i1/n1 + 5 i2/n2)) → single spike at (3,5).
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			ang := 2 * math.Pi * (3*float64(i1)/float64(n1) + 5*float64(i2)/float64(n2))
			x[i1*n2+i2] = cmplx.Rect(1, ang)
		}
	}
	X := forward2D(x, n1, n2)
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			want := 0.0
			if i1 == 3 && i2 == 5 {
				want = float64(n1 * n2)
			}
			if math.Abs(cmplx.Abs(X[i1*n2+i2])-want) > 1e-7 {
				t.Fatalf("2D spike wrong at (%d,%d): %v", i1, i2, X[i1*n2+i2])
			}
		}
	}
}

func TestRoundTrip2DProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 1 + rng.Intn(12)
		n2 := 1 + rng.Intn(12)
		x := randComplex(rng, n1*n2)
		y := inverse2D(forward2D(x, n1, n2), n1, n2)
		return maxErr(x, y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if out := forward(nil); len(out) != 0 {
		t.Fatal("the length-0 DFT should be empty")
	}
	one := []complex128{complex(2, -1)}
	out := forward(one)
	if out[0] != one[0] {
		t.Fatal("length-1 DFT is identity")
	}
}

// benchPlan times a warm plan's forward transform of a length-n signal.
func benchPlan(b *testing.B, n int) {
	x := randComplex(rand.New(rand.NewSource(1)), n)
	p := NewPlan(n)
	y := make([]complex128, n)
	scratch := make([]complex128, p.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		p.Forward(y, scratch)
	}
}

func BenchmarkFFT1024(b *testing.B) { benchPlan(b, 1024) }

func BenchmarkFFTBluestein1000(b *testing.B) { benchPlan(b, 1000) }
