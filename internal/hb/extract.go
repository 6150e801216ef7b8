package hb

import "repro/internal/core"

// At returns the state at torus grid point (i, j) (a view).
func (s *Solution) At(i, j int) []float64 {
	base := (j*s.N1 + i) * s.n
	return s.X[base : base+s.n]
}

// Spectrum returns the torus spectrum of unknown kPlus, minus unknown
// kMinus when kMinus ≥ 0: mix (k1, k2) sits at k1·F1 + k2·F2 (k1·F1 on a
// single-tone grid).
func (s *Solution) Spectrum(kPlus, kMinus int) core.GridSpectrum {
	f2 := s.F2
	if s.N2 == 1 {
		f2 = 0
	}
	return core.NewGridSpectrum(s.X, s.n, s.N1, s.N2, kPlus, kMinus, s.F1, f2)
}

// OneTime reconstructs x_k(t) by evaluating the truncated Fourier series at
// torus phases (f1·t, f2·t) via trigonometric interpolation of the grid.
func (s *Solution) OneTime(k int, t float64) float64 {
	return s.OneTimeRecord(k, []float64{t})[0]
}

// OneTimeRecord is OneTime at every time of ts from one transform of
// unknown k's grid.
func (s *Solution) OneTimeRecord(k int, ts []float64) []float64 {
	spec := s.Spectrum(k, -1)
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = spec.Eval(spec.F1*t, spec.Fd*t) // Fd is 0 on a single-tone grid
	}
	return v
}

// HarmonicPhasor returns the complex phasor of the (k1, k2) mix of unknown
// k (see core.GridSpectrum.Phasor).
func (s *Solution) HarmonicPhasor(k, k1, k2 int) complex128 {
	return s.Spectrum(k, -1).Phasor(k1, k2)
}

// HarmonicAmp returns the cosine amplitude of the (k1, k2) mix of unknown k:
// the spectral line at frequency k1·F1 + k2·F2.
func (s *Solution) HarmonicAmp(k, k1, k2 int) float64 {
	return s.Spectrum(k, -1).MixAmp(k1, k2)
}

// MaxHarmonicBeyond returns the largest amplitude among mixes with
// |k1| > k1Cut (aliasing/truncation diagnostic: large values mean the box is
// too small for the waveform's sharpness).
func (s *Solution) MaxHarmonicBeyond(k, k1Cut int) float64 {
	for _, m := range s.Spectrum(k, -1).DominantMixes(s.N1 * s.N2) {
		if m.K1 > k1Cut {
			return m.Amp
		}
	}
	return 0
}
