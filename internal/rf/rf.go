// Package rf provides the RF/communications utilities around the solvers:
// PRBS bit streams and pulse-shaped envelopes for modulated sources,
// spectral estimation via the in-house FFT, and the mixer figures of merit
// (conversion gain, harmonic distortion) reported in the paper's Section 3.
package rf

import (
	"errors"
	"math"

	"repro/internal/device"
	"repro/internal/fft"
)

// PRBS7 generates the classic x⁷+x⁶+1 maximal-length bit sequence (period
// 127) from the given seed (any nonzero 7-bit value).
func PRBS7(seed uint8, n int) []bool {
	if seed == 0 {
		seed = 0x5A
	}
	state := seed & 0x7F
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		bit := ((state >> 6) ^ (state >> 5)) & 1
		state = ((state << 1) | bit) & 0x7F
		out[i] = bit == 1
	}
	return out
}

// BitEnvelope builds a 1-periodic ±1 envelope carrying the given bits across
// one period, with raised-cosine transitions of width edge (fraction of a
// bit slot). It is the "pulse(·)" of the paper's Eq. (14): evaluated at the
// difference-frequency phase it imprints a bit stream on the carrier.
func BitEnvelope(bits []bool, edge float64) device.Envelope {
	nb := len(bits)
	if nb == 0 {
		return func(u float64) float64 { return 1 }
	}
	if edge <= 0 || edge >= 0.5 {
		edge = 0.1
	}
	level := func(i int) float64 {
		if bits[mod(i, nb)] {
			return 1
		}
		return -1
	}
	return func(u float64) float64 {
		u -= math.Floor(u)
		slot := u * float64(nb)
		i := int(slot)
		frac := slot - float64(i)
		cur := level(i)
		if frac < edge {
			// Smooth transition from the previous bit.
			prev := level(i - 1)
			w := 0.5 * (1 - math.Cos(math.Pi*frac/edge))
			return prev + (cur-prev)*w
		}
		return cur
	}
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Spectrum estimates the one-sided amplitude spectrum of uniformly sampled
// data with sample interval dt. Frequencies[k] = k/(N·dt); amplitudes are
// cosine amplitudes (a unit cosine at a bin frequency shows 1.0).
type Spectrum struct {
	Freq []float64
	Amp  []float64
}

// NewSpectrum computes the spectrum of x sampled every dt seconds.
func NewSpectrum(x []float64, dt float64) Spectrum {
	n := len(x)
	if n == 0 || dt <= 0 {
		return Spectrum{}
	}
	plan := fft.PlanFor(n)
	spec := make([]complex128, n+plan.ScratchLen())
	for i, v := range x {
		spec[i] = complex(v, 0)
	}
	plan.Forward(spec[:n], spec[n:])
	mags := fft.Magnitudes(spec[:n])
	freq := make([]float64, len(mags))
	for k := range freq {
		freq[k] = float64(k) / (float64(n) * dt)
	}
	return Spectrum{Freq: freq, Amp: mags}
}

// AmplitudeAt returns the amplitude at the bin nearest f, and that bin's
// exact frequency.
func (s Spectrum) AmplitudeAt(f float64) (amp, binFreq float64) {
	if len(s.Freq) == 0 {
		return 0, 0
	}
	best, bestD := 0, math.Inf(1)
	for k, fk := range s.Freq {
		if d := math.Abs(fk - f); d < bestD {
			best, bestD = k, d
		}
	}
	return s.Amp[best], s.Freq[best]
}

// ErrNoFundamental is returned by the mixer measurements when the fundamental
// amplitude is zero.
var ErrNoFundamental = errors.New("rf: zero fundamental amplitude")

// DB converts an amplitude ratio to decibels (20·log10).
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(ratio)
}

// ConversionGain is the mixer figure of merit: baseband output amplitude at
// the difference frequency divided by the RF input amplitude.
type ConversionGain struct {
	Ratio float64 // output amp at fd / input amp
	DB    float64
	// HD2, HD3 are the 2nd/3rd harmonic-of-baseband amplitudes relative to
	// the fundamental baseband tone (distortion of the down-converted
	// signal).
	HD2, HD3 float64
}

// MeasureConversionGain analyses a uniformly sampled baseband waveform
// (covering an integer number of difference periods), the difference
// frequency fd, and the driving RF amplitude.
func MeasureConversionGain(baseband []float64, dt, fd, rfAmp float64) (ConversionGain, error) {
	if rfAmp <= 0 {
		return ConversionGain{}, errors.New("rf: rfAmp must be positive")
	}
	sp := NewSpectrum(baseband, dt)
	a1, _ := sp.AmplitudeAt(fd)
	if a1 == 0 {
		return ConversionGain{}, ErrNoFundamental
	}
	a2, _ := sp.AmplitudeAt(2 * fd)
	a3, _ := sp.AmplitudeAt(3 * fd)
	g := ConversionGain{Ratio: a1 / rfAmp, HD2: a2 / a1, HD3: a3 / a1}
	g.DB = DB(g.Ratio)
	return g, nil
}

// Intermod summarises a two-tone intermodulation test: baseband tones at fa
// and fb produce third-order products at 2fa−fb and 2fb−fa.
type Intermod struct {
	Fund1, Fund2 float64 // amplitudes at fa, fb
	IM3Lo, IM3Hi float64 // amplitudes at 2fa−fb, 2fb−fa
	// IM3dBc is the worst IM3 product relative to the weaker fundamental,
	// in dB (negative when the products are below the carrier).
	IM3dBc float64
	// IIP3 estimates the input-referred third-order intercept from the
	// standard 2:1 slope rule, in the same units as inAmp.
	IIP3 float64
}

// MeasureIntermod analyses a record containing two baseband tones at fa and
// fb (each of drive amplitude inAmp at the input).
func MeasureIntermod(x []float64, dt, fa, fb, inAmp float64) (Intermod, error) {
	if fa == fb {
		return Intermod{}, errors.New("rf: intermod tones must differ")
	}
	sp := NewSpectrum(x, dt)
	var m Intermod
	m.Fund1, _ = sp.AmplitudeAt(fa)
	m.Fund2, _ = sp.AmplitudeAt(fb)
	m.IM3Lo, _ = sp.AmplitudeAt(math.Abs(2*fa - fb))
	m.IM3Hi, _ = sp.AmplitudeAt(math.Abs(2*fb - fa))
	fund := math.Min(m.Fund1, m.Fund2)
	im3 := math.Max(m.IM3Lo, m.IM3Hi)
	if fund == 0 {
		return m, ErrNoFundamental
	}
	m.IM3dBc = DB(im3 / fund)
	if im3 > 0 && inAmp > 0 {
		// IIP3 = Pin + ΔdB/2 on a power axis; on amplitude: ×10^(Δ/40).
		m.IIP3 = inAmp * math.Pow(10, -m.IM3dBc/40)
	}
	return m, nil
}

// EyeMetrics summarises a detected bit stream against its reference pattern:
// the worst-case level separation at sampling instants ("eye height" proxy).
type EyeMetrics struct {
	MinHigh, MaxLow float64 // worst sampled one-level and zero-level
	Open            bool
}

// MeasureEye samples the baseband at the centre of each bit slot and checks
// the levels separate according to the reference bits. The baseband slice
// must span exactly one envelope period containing len(bits) slots.
func MeasureEye(baseband []float64, bits []bool) EyeMetrics {
	nb := len(bits)
	n := len(baseband)
	m := EyeMetrics{MinHigh: math.Inf(1), MaxLow: math.Inf(-1)}
	if nb == 0 || n == 0 {
		return m
	}
	for i, b := range bits {
		idx := (i*n + n/2) / nb
		if idx >= n {
			idx = n - 1
		}
		v := baseband[idx]
		if b {
			if v < m.MinHigh {
				m.MinHigh = v
			}
		} else {
			if v > m.MaxLow {
				m.MaxLow = v
			}
		}
	}
	m.Open = m.MinHigh > m.MaxLow
	return m
}
