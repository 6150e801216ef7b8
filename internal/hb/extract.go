package hb

import (
	"math"
	"math/cmplx"

	"repro/internal/fft"
)

// index returns the offset of unknown k at grid point (i, j).
func (s *Solution) index(i, j, k int) int { return (j*s.N1+i)*s.n + k }

// At returns the state at torus grid point (i, j) (a view).
func (s *Solution) At(i, j int) []float64 {
	base := (j*s.N1 + i) * s.n
	return s.X[base : base+s.n]
}

// OneTime reconstructs x_k(t) by evaluating the truncated Fourier series at
// torus phases (f1·t, f2·t) via trigonometric interpolation of the grid.
func (s *Solution) OneTime(k int, t float64) float64 {
	return s.OneTimeRecord(k, []float64{t})[0]
}

// OneTimeRecord is OneTime at every time of ts from one transform of
// unknown k's grid.
func (s *Solution) OneTimeRecord(k int, ts []float64) []float64 {
	spec := s.spectrumPlane(k)
	v := make([]float64, len(ts))
	for i, t := range ts {
		th2 := 0.0
		if s.N2 > 1 {
			th2 = s.F2 * t
		}
		v[i] = s.series(spec, s.F1*t, th2)
	}
	return v
}

// EvalTorus evaluates unknown k at arbitrary torus phases using the
// spectrum (exact trigonometric interpolation of the collocation solution).
func (s *Solution) EvalTorus(k int, th1, th2 float64) float64 {
	return s.series(s.spectrumPlane(k), th1, th2)
}

// series sums the truncated Fourier series of spectrum plane spec at torus
// phases (th1, th2).
func (s *Solution) series(spec []complex128, th1, th2 float64) float64 {
	N1, N2 := s.N1, s.N2
	acc := complex(0, 0)
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
			ang := 2 * math.Pi * (float64(k1)*th1 + float64(k2)*th2)
			acc += spec[j*N1+i] * cmplx.Rect(1, ang)
		}
	}
	return real(acc) / float64(N1*N2)
}

// spectrumPlane returns the 2-D DFT of unknown k's grid samples.
func (s *Solution) spectrumPlane(k int) []complex128 {
	N1, N2 := s.N1, s.N2
	plane := make([]complex128, N1*N2)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			plane[j*N1+i] = complex(s.X[s.index(i, j, k)], 0)
		}
	}
	p := fft.NewPlan2D(N2, N1)
	p.Forward(plane, make([]complex128, p.ScratchLen()))
	return plane
}

// HarmonicPhasor returns the complex phasor of the (k1, k2) mix of unknown
// k, normalised so that |phasor| is the cosine amplitude of the line (the
// conjugate half is folded in for non-DC mixes). Differential quantities
// subtract phasors, not amplitudes.
func (s *Solution) HarmonicPhasor(k, k1, k2 int) complex128 {
	spec := s.spectrumPlane(k)
	N1, N2 := s.N1, s.N2
	i := ((k1 % N1) + N1) % N1
	j := ((k2 % N2) + N2) % N2
	a := spec[j*N1+i] / complex(float64(N1*N2), 0)
	if k1 != 0 || k2 != 0 {
		a *= 2 // combine with the conjugate line
	}
	return a
}

// HarmonicAmp returns the cosine amplitude of the (k1, k2) mix of unknown k:
// the spectral line at frequency k1·F1 + k2·F2.
func (s *Solution) HarmonicAmp(k, k1, k2 int) float64 {
	return cmplx.Abs(s.HarmonicPhasor(k, k1, k2))
}

// MaxHarmonicBeyond returns the largest amplitude among mixes with
// |k1| > k1Cut (aliasing/truncation diagnostic: large values mean the box is
// too small for the waveform's sharpness).
func (s *Solution) MaxHarmonicBeyond(k, k1Cut int) float64 {
	spec := s.spectrumPlane(k)
	N1, N2 := s.N1, s.N2
	mx := 0.0
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			k1 := i
			if k1 > N1/2 {
				k1 -= N1
			}
			if abs(k1) <= k1Cut {
				continue
			}
			a := cmplx.Abs(spec[j*N1+i]) / float64(N1*N2)
			if a > mx {
				mx = a
			}
		}
	}
	return mx
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
