package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// The reference kernels below are the package's transforms as they stood
// before plans: the radix-2 twiddles and the Bluestein chirp recomputed on
// every call, every intermediate freshly allocated. A Plan must reproduce
// them bit for bit.

func refTransform(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		refRadix2(out, inverse)
		return out
	}
	return refBluestein(out, inverse)
}

func refInverse(x []complex128) []complex128 {
	y := refTransform(x, true)
	n := complex(float64(len(y)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

func refRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

func refBluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	inv := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * inv * w[k]
	}
	return out
}

func refTransform2D(x []complex128, n1, n2 int, inverse bool) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	for i := 0; i < n1; i++ {
		row := out[i*n2 : (i+1)*n2]
		copy(row, refTransform(row, inverse))
	}
	col := make([]complex128, n1)
	for j := 0; j < n2; j++ {
		for i := 0; i < n1; i++ {
			col[i] = out[i*n2+j]
		}
		t := refTransform(col, inverse)
		for i := 0; i < n1; i++ {
			out[i*n2+j] = t[i]
		}
	}
	return out
}

func refInverse2D(x []complex128, n1, n2 int) []complex128 {
	y := refTransform2D(x, n1, n2, true)
	s := complex(float64(n1*n2), 0)
	for i := range y {
		y[i] /= s
	}
	return y
}

// bitLengths are the transform lengths pinned bit for bit: both kernels,
// the grid sizes the solvers use, a prime, and a long record.
var bitLengths = []int{1, 2, 3, 12, 16, 30, 40, 48, 64, 97, 45000}

// bitInputs returns test signals of length n: complex noise, a real
// signal with exact and signed zeros — the solvers transform real planes,
// whose imaginary parts are all +0 — and a signal of signed zeros only,
// whose output signs expose any twiddle that differs from the
// reference's in the sign of a zero part.
func bitInputs(rng *rand.Rand, n int) [][]complex128 {
	negZero := math.Copysign(0, -1)
	zeros := make([]complex128, n)
	for i := range zeros {
		zeros[i] = complex([]float64{0, negZero}[i%2], []float64{0, negZero}[(i/2)%2])
	}
	re := make([]complex128, n)
	for i := range re {
		switch i % 7 {
		case 3:
			re[i] = 0
		case 5:
			re[i] = complex(negZero, 0)
		default:
			re[i] = complex(rng.NormFloat64(), 0)
		}
	}
	return [][]complex128{randComplex(rng, n), re, zeros}
}

func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: entry %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestPlanMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range bitLengths {
		p := NewPlan(n)
		scratch := make([]complex128, p.ScratchLen())
		for _, x := range bitInputs(rng, n) {
			y := append([]complex128(nil), x...)
			p.Forward(y, scratch)
			sameBits(t, "forward", y, refTransform(x, false))
			y = append(y[:0], x...)
			p.Inverse(y, scratch)
			sameBits(t, "inverse", y, refInverse(x))
		}
	}
}

func TestPlan2DMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	check := func(n1, n2 int) {
		p := NewPlan2D(n1, n2)
		scratch := make([]complex128, p.ScratchLen())
		for _, x := range bitInputs(rng, n1*n2) {
			y := append([]complex128(nil), x...)
			p.Forward(y, scratch)
			sameBits(t, "forward 2-D", y, refTransform2D(x, n1, n2, false))
			y = append(y[:0], x...)
			p.Inverse(y, scratch)
			sameBits(t, "inverse 2-D", y, refInverse2D(x, n1, n2))
		}
	}
	for _, n1 := range bitLengths {
		for _, n2 := range bitLengths {
			if n1 == 45000 || n2 == 45000 {
				continue
			}
			check(n1, n2)
		}
	}
	check(1, 45000)
	check(45000, 1)
}

// TestInverseTablesAreConjugates checks what the plan's inverse kernel
// rests on: the twiddles and the chirp the reference computes at the
// positive sign are, bit for bit, the conjugates of the forward ones (the
// unit twiddle w_0 aside, which is 1 in both directions).
func TestInverseTablesAreConjugates(t *testing.T) {
	for m := 2; m <= 1<<17; m <<= 1 {
		tw := twiddles(m)
		for half := 1; half < m; half <<= 1 {
			wStep := cmplx.Rect(1, 1.0*2*math.Pi/float64(half<<1))
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				if k > 0 {
					sameBits(t, "inverse twiddle", []complex128{cmplx.Conj(tw[half-1+k])}, []complex128{w})
				}
				w *= wStep
			}
		}
	}
	chirpLengths := append([]int(nil), bitLengths...)
	for n := 1; n <= 300; n++ {
		chirpLengths = append(chirpLengths, n)
	}
	for _, n := range chirpLengths {
		if n&(n-1) == 0 {
			continue
		}
		p := NewPlan(n)
		for k := 0; k < n; k++ {
			kk := (int64(k) * int64(k)) % int64(2*n)
			want := cmplx.Rect(1, 1.0*math.Pi*float64(kk)/float64(n))
			sameBits(t, "inverse chirp", []complex128{p.chirpAt(k, true)}, []complex128{want})
		}
	}
}

// TestPlanConcurrentUse shares one plan among goroutines, each with its
// own scratch; run it under -race.
func TestPlanConcurrentUse(t *testing.T) {
	const n1, n2 = 30, 40
	rng := rand.New(rand.NewSource(9))
	x := randComplex(rng, n1*n2)
	want := refTransform2D(x, n1, n2, false)
	wantInv := refInverse2D(x, n1, n2)
	p := NewPlan2D(n1, n2)
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := make([]complex128, p.ScratchLen())
			y := make([]complex128, len(x))
			for rep := 0; rep < 20; rep++ {
				copy(y, x)
				if (rep+g)%2 == 0 {
					p.Forward(y, scratch)
					if !equalBits(y, want) {
						errs[g] = "forward"
						return
					}
				} else {
					p.Inverse(y, scratch)
					if !equalBits(y, wantInv) {
						errs[g] = "inverse"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s transform differs from the reference", g, e)
		}
	}
}

func equalBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestPlanTransformAllocsZero is the plans' allocation contract: a warm
// 2-D transform, forward or inverse, Bluestein or radix-2, allocates
// nothing.
func TestPlanTransformAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	for _, g := range [][2]int{{30, 40}, {16, 32}} {
		p := NewPlan2D(g[0], g[1])
		x := randComplex(rand.New(rand.NewSource(1)), g[0]*g[1])
		scratch := make([]complex128, p.ScratchLen())
		p.Inverse(x, scratch) // builds the inverse chirp transforms
		for _, dir := range []struct {
			name string
			f    func(x, scratch []complex128)
		}{{"forward", p.Forward}, {"inverse", p.Inverse}} {
			if a := testing.AllocsPerRun(10, func() { dir.f(x, scratch) }); a != 0 {
				t.Fatalf("%dx%d %s: %v allocations per warm transform, want 0", g[0], g[1], dir.name, a)
			}
		}
	}
}
