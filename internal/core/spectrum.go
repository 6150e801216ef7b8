package core

import (
	"math"
	"math/cmplx"

	"repro/internal/fft"
)

// GridSpectrum is the 2-D Fourier decomposition of one probe's surface on a
// bi-periodic grid in the (j·N1+i)·n+k layout that QPSS and HB share: bin
// (k1, k2) is the mix at frequency k1·F1 + k2·Fd — harmonics of the first
// axis's tone beating with harmonics of the second axis's (the difference
// frequency on QPSS's sheared grid, the second tone on HB's torus). It is
// the one place a grid solution's bins become mixes. Each real mix is a
// conjugate pair of bins folded into one cosine line: every bin counts
// twice except the self-conjugate ones, (0,0), (0,N2/2), (N1/2,0) and
// (N1/2,N2/2), which are their own partners.
type GridSpectrum struct {
	N1, N2 int
	F1, Fd float64
	coef   []complex128 // 2-D DFT, layout j*N1 + i (k1 fast)
}

// Mix is one line of a GridSpectrum: the (K1, K2) mix and its cosine
// amplitude.
type Mix struct {
	K1, K2 int
	Amp    float64
}

// NewGridSpectrum transforms one probe of the grid solution x (n unknowns
// per point on an N1×N2 grid): unknown kPlus, minus unknown kMinus when
// kMinus ≥ 0. Subtracting before the transform keeps the phase information
// that a subtraction of per-node amplitudes would destroy. f1 and fd are
// the frequencies of one harmonic step along each axis.
func NewGridSpectrum(x []float64, n, N1, N2, kPlus, kMinus int, f1, fd float64) GridSpectrum {
	plane := make([]complex128, N1*N2)
	for p := range plane {
		v := x[p*n+kPlus]
		if kMinus >= 0 {
			v -= x[p*n+kMinus]
		}
		plane[p] = complex(v, 0)
	}
	plan := fft.NewPlan2D(N2, N1)
	plan.Forward(plane, make([]complex128, plan.ScratchLen()))
	return GridSpectrum{N1: N1, N2: N2, F1: f1, Fd: fd, coef: plane}
}

// Spectrum computes the grid spectrum of unknown k.
func (s *Solution) Spectrum(k int) GridSpectrum {
	return s.SpectrumDiff(k, -1)
}

// SpectrumDiff computes the grid spectrum of the differential quantity
// x_kPlus − x_kMinus (e.g. the balanced mixer's differential output); a
// negative kMinus selects x_kPlus alone.
func (s *Solution) SpectrumDiff(kPlus, kMinus int) GridSpectrum {
	return NewGridSpectrum(s.X, s.n, s.N1, s.N2, kPlus, kMinus, s.Shear.F1, 1/s.Shear.Td())
}

// harmonic maps FFT index i of an axis of length n to its signed harmonic
// number in (−n/2, n/2].
func harmonic(i, n int) int {
	if i > n/2 {
		return i - n
	}
	return i
}

// bin returns the coefficient index of the (k1, k2) mix.
func (g GridSpectrum) bin(k1, k2 int) int {
	i := ((k1 % g.N1) + g.N1) % g.N1
	j := ((k2 % g.N2) + g.N2) % g.N2
	return j*g.N1 + i
}

// folds reports whether bin p has a distinct conjugate partner to fold in:
// every bin but the self-conjugate ones.
func (g GridSpectrum) folds(p int) bool {
	i, j := p%g.N1, p/g.N1
	return (2*i)%g.N1 != 0 || (2*j)%g.N2 != 0
}

// amp is the cosine amplitude of bin p.
func (g GridSpectrum) amp(p int) float64 {
	a := cmplx.Abs(g.coef[p]) / float64(g.N1*g.N2)
	if g.folds(p) {
		a *= 2
	}
	return a
}

// MixAmp returns the cosine amplitude of the (k1, k2) mix; (0, 0) is the DC
// value. k1 ∈ [−N1/2, N1/2], k2 ∈ [−N2/2, N2/2].
func (g GridSpectrum) MixAmp(k1, k2 int) float64 {
	return g.amp(g.bin(k1, k2))
}

// Phasor returns the complex phasor of the (k1, k2) mix, normalised so that
// its modulus is the line's cosine amplitude. Differential quantities
// subtract phasors, not amplitudes.
func (g GridSpectrum) Phasor(k1, k2 int) complex128 {
	p := g.bin(k1, k2)
	c := g.coef[p] / complex(float64(g.N1*g.N2), 0)
	if g.folds(p) {
		c *= 2
	}
	return c
}

// MixFreq returns the physical frequency of the (k1, k2) mix in Hz.
func (g GridSpectrum) MixFreq(k1, k2 int) float64 {
	return float64(k1)*g.F1 + float64(k2)*g.Fd
}

// DominantMixes returns up to n mixes by descending amplitude, excluding
// DC and listing each conjugate pair once; equal amplitudes keep bin order
// (k2 slow, k1 fast).
func (g GridSpectrum) DominantMixes(n int) []Mix {
	top := make([]Mix, 0, max(0, min(n, g.N1*g.N2)))
	for j := 0; j < g.N2; j++ {
		k2 := harmonic(j, g.N2)
		for i := 0; i < g.N1; i++ {
			k1 := harmonic(i, g.N1)
			// One bin of each conjugate pair: k1 > 0, and k2 ≥ 0 in a
			// column that is its own conjugate (k1 = 0 or N1/2); DC is not
			// a mix.
			if k1 < 0 || (2*i)%g.N1 == 0 && k2 < 0 || k1 == 0 && k2 == 0 {
				continue
			}
			m := Mix{k1, k2, g.amp(j*g.N1 + i)}
			// Bounded stable insertion: m goes after every kept line at
			// least as large, and falls off the end of a full list.
			at := len(top)
			for at > 0 && top[at-1].Amp < m.Amp {
				at--
			}
			if at == cap(top) {
				continue
			}
			if len(top) < cap(top) {
				top = append(top, Mix{})
			}
			copy(top[at+1:], top[at:])
			top[at] = m
		}
	}
	return top
}

// Eval sums the spectrum's trigonometric series at torus phases (th1, th2),
// in cycles: the exact interpolant of the grid samples. The sum runs over
// every bin, so each conjugate pair enters from both sides.
func (g GridSpectrum) Eval(th1, th2 float64) float64 {
	acc := complex(0, 0)
	for j := 0; j < g.N2; j++ {
		k2 := harmonic(j, g.N2)
		for i := 0; i < g.N1; i++ {
			k1 := harmonic(i, g.N1)
			ang := 2 * math.Pi * (float64(k1)*th1 + float64(k2)*th2)
			acc += g.coef[j*g.N1+i] * cmplx.Rect(1, ang)
		}
	}
	return real(acc) / float64(g.N1*g.N2)
}

// GridSpectralTail measures the spectral tail of a bi-periodic grid solution
// in the (j·N1+i)·n+k layout shared by QPSS and HB: for every unknown it
// takes the 2-D DFT of the unknown's multi-time surface and compares the
// largest amplitude in the outer band of each axis (|k1| > N1/3, resp.
// |k2| > N2/3 — the bins nearest Nyquist, which a converged-in-grid solution
// leaves empty) against the unknown's largest AC amplitude. The returned
// tails are the worst such ratios over all unknowns: a tail near or above 1
// means the grid is aliasing, a tail below the solver tolerance means
// further refinement cannot change the resolved mixes. absFloor is the
// absolute amplitude below which outer-band content is considered numerical
// noise and ignored.
func GridSpectralTail(x []float64, n, N1, N2 int, absFloor float64) (tail1, tail2 float64) {
	if n <= 0 || N1 <= 0 || N2 <= 0 || len(x) < N1*N2*n {
		return 0, 0
	}
	// One plan and one plane serve every unknown.
	plan := fft.NewPlan2D(N2, N1)
	coef := make([]complex128, N1*N2)
	scratch := make([]complex128, plan.ScratchLen())
	norm := 1 / float64(N1*N2)
	for k := 0; k < n; k++ {
		for p := range coef {
			coef[p] = complex(x[p*n+k], 0)
		}
		plan.Forward(coef, scratch)
		maxAC, out1, out2 := 0.0, 0.0, 0.0
		for j := 0; j < N2; j++ {
			k2 := harmonic(j, N2)
			for i := 0; i < N1; i++ {
				k1 := harmonic(i, N1)
				if k1 == 0 && k2 == 0 {
					continue
				}
				a := 2 * cmplx.Abs(coef[j*N1+i]) * norm
				if a > maxAC {
					maxAC = a
				}
				if a <= absFloor {
					continue
				}
				if 3*absInt(k1) > N1 && a > out1 {
					out1 = a
				}
				if 3*absInt(k2) > N2 && a > out2 {
					out2 = a
				}
			}
		}
		if maxAC <= absFloor {
			continue // an unknown with no meaningful AC content
		}
		if t := out1 / maxAC; t > tail1 {
			tail1 = t
		}
		if t := out2 / maxAC; t > tail2 {
			tail2 = t
		}
	}
	return tail1, tail2
}

func absInt(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
