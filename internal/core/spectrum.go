package core

import (
	"math/cmplx"

	"repro/internal/fft"
)

// GridSpectrum is the 2-D Fourier decomposition of one unknown's multi-time
// surface: index (k1, k2) is the mix at frequency k1·F1 + k2/Td — harmonics
// of the LO beating with harmonics of the difference frequency. It gives the
// frequency-domain view of the time-domain solution for free (the paper's
// method never needs it to *solve*, but gain/distortion reporting does).
type GridSpectrum struct {
	N1, N2 int
	F1, Fd float64
	coef   []complex128 // 2-D DFT, layout j*N1 + i (k1 fast)
}

// spectrumOf transforms a per-grid-point scalar into a GridSpectrum.
func (s *Solution) spectrumOf(value func(i, j int) float64) GridSpectrum {
	N1, N2 := s.N1, s.N2
	plane := make([]complex128, N1*N2)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			plane[j*N1+i] = complex(value(i, j), 0)
		}
	}
	p := fft.NewPlan2D(N2, N1)
	p.Forward(plane, make([]complex128, p.ScratchLen()))
	return GridSpectrum{
		N1: N1, N2: N2,
		F1: s.Shear.F1, Fd: 1 / s.Shear.Td(),
		coef: plane,
	}
}

// Spectrum computes the grid spectrum of unknown k.
func (s *Solution) Spectrum(k int) GridSpectrum {
	return s.spectrumOf(func(i, j int) float64 { return s.X[s.index(i, j, k)] })
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
			k2 := j
			if k2 > N2/2 {
				k2 -= N2
			}
			for i := 0; i < N1; i++ {
				k1 := i
				if k1 > N1/2 {
					k1 -= N1
				}
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

// SpectrumDiff computes the grid spectrum of the differential quantity
// x_kPlus − x_kMinus (e.g. the balanced mixer's differential output).
// Subtracting before transforming keeps the phase information that a
// subtraction of per-node amplitudes would destroy.
func (s *Solution) SpectrumDiff(kPlus, kMinus int) GridSpectrum {
	return s.spectrumOf(func(i, j int) float64 {
		return s.X[s.index(i, j, kPlus)] - s.X[s.index(i, j, kMinus)]
	})
}

// MixAmp returns the cosine amplitude of the (k1, k2) mix; (0, 0) is the DC
// value. k1 ∈ [−N1/2, N1/2], k2 ∈ [−N2/2, N2/2].
func (g GridSpectrum) MixAmp(k1, k2 int) float64 {
	i := ((k1 % g.N1) + g.N1) % g.N1
	j := ((k2 % g.N2) + g.N2) % g.N2
	a := cmplx.Abs(g.coef[j*g.N1+i]) / float64(g.N1*g.N2)
	if k1 != 0 || k2 != 0 {
		a *= 2 // fold in the conjugate line
	}
	return a
}

// MixFreq returns the physical frequency of the (k1, k2) mix in Hz.
func (g GridSpectrum) MixFreq(k1, k2 int) float64 {
	return float64(k1)*g.F1 + float64(k2)*g.Fd
}

// DominantMixes returns up to n (k1, k2, amplitude) triples sorted by
// descending amplitude, excluding DC; a quick "what is this node doing"
// diagnostic.
func (g GridSpectrum) DominantMixes(n int) [](struct {
	K1, K2 int
	Amp    float64
}) {
	type mix struct {
		K1, K2 int
		Amp    float64
	}
	var all []mix
	for j := 0; j < g.N2; j++ {
		k2 := j
		if k2 > g.N2/2 {
			k2 -= g.N2
		}
		for i := 0; i < g.N1; i++ {
			k1 := i
			if k1 > g.N1/2 {
				k1 -= g.N1
			}
			if k1 == 0 && k2 == 0 {
				continue
			}
			// Keep the canonical half-plane so conjugate pairs appear once.
			if k1 < 0 || (k1 == 0 && k2 < 0) {
				continue
			}
			all = append(all, mix{k1, k2, g.MixAmp(k1, k2)})
		}
	}
	// Selection sort for the top n (n is tiny).
	if n > len(all) {
		n = len(all)
	}
	out := make([]struct {
		K1, K2 int
		Amp    float64
	}, 0, n)
	for pick := 0; pick < n; pick++ {
		best := -1
		for i := range all {
			if best < 0 || all[i].Amp > all[best].Amp {
				best = i
			}
		}
		out = append(out, struct {
			K1, K2 int
			Amp    float64
		}{all[best].K1, all[best].K2, all[best].Amp})
		all[best] = all[len(all)-1]
		all = all[:len(all)-1]
	}
	return out
}
