// Package fft implements the discrete Fourier transforms used by the
// harmonic-balance baseline and by the RF spectral metrics. A Plan fixes
// one transform length and computes once what depends only on it: the
// radix-2 twiddles and, for a length that is not a power of two, the
// Bluestein chirp and the transform of its conjugate. Its transforms then
// run in place in caller-owned scratch and allocate nothing. A Plan2D
// pairs a row plan and a column plan for the row-column 2-D transform.
//
// Conventions: Forward computes X[k] = Σ_n x[n]·exp(−2πi·kn/N) (no scaling);
// Inverse divides by N so Inverse(Forward(x)) == x.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan is the DFT of one length N: an in-place radix-2 Cooley–Tukey kernel
// when N is a power of two, a Bluestein chirp-z convolution through a
// radix-2 transform of length M ≥ 2N−1 otherwise. A Plan is immutable once
// built and safe for concurrent use; each goroutine passes its own scratch.
type Plan struct {
	n, m int
	// tw holds the forward radix-2 twiddles of length m stage by stage:
	// the stage of butterfly span 2h keeps w_0…w_{h−1} at tw[h−1 : 2h−1],
	// tabulated by the kernel's recurrence w_{k+1} = w_k·exp(−2πi/2h). The
	// inverse kernel uses their conjugates, which are bit for bit the
	// twiddles the recurrence yields at the opposite sign (w_0 = 1 in
	// both directions).
	tw []complex128
	// chirp is Bluestein's exp(−πi·k²/N), k = 0…N−1 (nil when N is a
	// power of two); the inverse chirp is its conjugate. conv[0] is the
	// radix-2 transform of the forward conjugate chirp, zero-padded and
	// wrapped to length m; conv[1], the inverse direction's, is built on
	// the first inverse transform, since most plans only run forward.
	chirp   []complex128
	conv    [2][]complex128
	invOnce sync.Once
}

// NewPlan builds the plan of length-n transforms.
func NewPlan(n int) *Plan {
	if n < 0 {
		panic("fft: negative length")
	}
	p := &Plan{n: n, m: n}
	if n&(n-1) != 0 {
		p.m = 1
		for p.m < 2*n-1 {
			p.m <<= 1
		}
	}
	p.tw = twiddles(p.m)
	if p.m == n {
		return p
	}
	// Chirp: exp(−πi·k²/n). Use k² mod 2n to avoid precision loss.
	sign := -1.0
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	p.conv[0] = p.chirpTransform(false)
	return p
}

// twiddles tabulates the forward radix-2 twiddles of length m (see
// Plan.tw).
func twiddles(m int) []complex128 {
	if m < 2 {
		return nil
	}
	tw := make([]complex128, m-1)
	sign := -1.0
	for half := 1; half < m; half <<= 1 {
		size := half << 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw[half-1+k] = w
			w *= wStep
		}
	}
	return tw
}

// chirpTransform returns the radix-2 transform of the conjugate chirp of
// one direction, zero-padded to m and wrapped so that index m−k holds
// entry k.
func (p *Plan) chirpTransform(inverse bool) []complex128 {
	b := make([]complex128, p.m)
	for k := 0; k < p.n; k++ {
		b[k] = cmplx.Conj(p.chirpAt(k, inverse))
	}
	for k := 1; k < p.n; k++ {
		b[p.m-k] = b[k]
	}
	p.radix2(b, false)
	return b
}

// chirpAt is entry k of the chirp of one direction.
func (p *Plan) chirpAt(k int, inverse bool) complex128 {
	if inverse {
		return cmplx.Conj(p.chirp[k])
	}
	return p.chirp[k]
}

// ScratchLen is the scratch length a transform needs: M for a Bluestein
// plan, 0 for a power of two.
func (p *Plan) ScratchLen() int {
	if p.chirp == nil {
		return 0
	}
	return p.m
}

// Forward replaces x (length N) with its unscaled DFT. scratch must hold
// at least ScratchLen values; its contents are overwritten.
//
//mpde:hotpath
func (p *Plan) Forward(x, scratch []complex128) {
	p.transform(x, scratch, false)
}

// Inverse replaces x (length N) with its inverse DFT, scaled by 1/N.
//
//mpde:hotpath
func (p *Plan) Inverse(x, scratch []complex128) {
	p.transform(x, scratch, true)
	n := complex(float64(p.n), 0)
	for i := range x {
		x[i] /= n
	}
}

// transform is the unscaled DFT of x in place, in either direction.
//
//mpde:hotpath
func (p *Plan) transform(x, scratch []complex128, inverse bool) {
	if len(x) != p.n {
		panic("fft: length mismatch") //mpde:coldpath caller bug
	}
	if p.chirp == nil {
		p.radix2(x, inverse)
		return
	}
	p.bluestein(x, scratch[:p.m], inverse)
}

// radix2 runs the iterative in-place Cooley–Tukey FFT of length m on x.
//
//mpde:hotpath
func (p *Plan) radix2(x []complex128, inverse bool) {
	m := len(x)
	if m <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(m)))
	for i := 0; i < m; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for half := 1; half < m; half <<= 1 {
		size := half << 1
		tw := p.tw[half-1 : size-1]
		for start := 0; start < m; start += size {
			lo, hi := x[start:start+half], x[start+half:start+size]
			for k, w := range tw {
				if inverse && k > 0 {
					w = cmplx.Conj(w)
				}
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// bluestein computes the length-n DFT of x in place as a convolution with
// the chirp, through radix-2 transforms of length m in a.
//
//mpde:hotpath
func (p *Plan) bluestein(x, a []complex128, inverse bool) {
	n := p.n
	conv := p.conv[0]
	if inverse {
		p.invOnce.Do(func() { p.conv[1] = p.chirpTransform(true) }) //mpde:alloc-ok once per plan
		conv = p.conv[1]
	}
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirpAt(k, inverse)
	}
	clear(a[n:])
	p.radix2(a, false)
	for i := range a {
		a[i] *= conv[i]
	}
	p.radix2(a, true)
	inv := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * inv * p.chirpAt(k, inverse)
	}
}

// Magnitudes returns |X[k]| for k = 0..len(X)/2 (the one-sided spectrum),
// scaled so that a unit-amplitude cosine shows magnitude 1 at its bin:
// bin 0 and (for even N) the Nyquist bin carry scale 1/N, others 2/N.
func Magnitudes(spec []complex128) []float64 {
	n := len(spec)
	if n == 0 {
		return nil
	}
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		s := cmplx.Abs(spec[k]) / float64(n)
		if k != 0 && !(n%2 == 0 && k == n/2) {
			s *= 2
		}
		out[k] = s
	}
	return out
}

// Plan2D is the 2-D DFT of an n1×n2 grid stored row-major (index
// i1·n2 + i2): every row is transformed, then every column. Like Plan it
// is immutable and safe for concurrent use with per-goroutine scratch.
type Plan2D struct {
	n1, n2     int
	rows, cols *Plan // lengths n2 and n1
}

// NewPlan2D builds the plan of n1×n2 transforms; a square grid shares one
// plan between its rows and columns.
func NewPlan2D(n1, n2 int) *Plan2D {
	p := &Plan2D{n1: n1, n2: n2, rows: NewPlan(n2)}
	p.cols = p.rows
	if n1 != n2 {
		p.cols = NewPlan(n1)
	}
	return p
}

// ScratchLen is the scratch length a 2-D transform needs: one column plus
// the larger of the two axis plans' scratch.
func (p *Plan2D) ScratchLen() int {
	return p.n1 + max(p.rows.ScratchLen(), p.cols.ScratchLen())
}

// Forward replaces the grid x with its unscaled 2-D DFT. scratch must hold
// at least ScratchLen values.
//
//mpde:hotpath
func (p *Plan2D) Forward(x, scratch []complex128) {
	p.transform(x, scratch, false)
}

// Inverse inverts Forward in place (scaled by 1/(n1·n2)).
//
//mpde:hotpath
func (p *Plan2D) Inverse(x, scratch []complex128) {
	// Unscaled inverse per axis; the overall scaling is applied here.
	p.transform(x, scratch, true)
	s := complex(float64(p.n1*p.n2), 0)
	for i := range x {
		x[i] /= s
	}
}

//mpde:hotpath
func (p *Plan2D) transform(x, scratch []complex128, inverse bool) {
	n1, n2 := p.n1, p.n2
	if len(x) != n1*n2 {
		panic("fft: grid size mismatch") //mpde:coldpath caller bug
	}
	col, work := scratch[:n1], scratch[n1:]
	// Rows (contiguous).
	for i := 0; i < n1; i++ {
		p.rows.transform(x[i*n2:(i+1)*n2], work, inverse)
	}
	// Columns (strided).
	for j := 0; j < n2; j++ {
		for i := range col {
			col[i] = x[i*n2+j]
		}
		p.cols.transform(col, work, inverse)
		for i := range col {
			x[i*n2+j] = col[i]
		}
	}
}
