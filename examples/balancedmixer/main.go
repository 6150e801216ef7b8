// Balanced LO-doubling down-conversion mixer (paper Section 3, Figs. 3–6).
//
// The lower source-coupled MOSFET pair doubles the 450 MHz LO; the doubled
// tail current feeds the upper differential pair driven by a bit-modulated
// RF carrier near 900 MHz. The MPDE quasi-periodic steady state on a 40×30
// sheared grid (the paper's grid) directly yields:
//
//   - Fig. 3: the multi-time differential output surface,
//   - Fig. 4: the baseband differential output — the demodulated bit stream,
//   - Fig. 5: the multi-time voltage at the MOSFET sources (tail), showing
//     the sharp doubled-LO waveform that defeats harmonic balance,
//   - Fig. 6: the reconstructed one-time waveform over 5 LO periods.
//
// Run with: go run ./examples/balancedmixer
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	bits := repro.PRBS7(0x4D, 8) // 8 bits per difference period
	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
	sh := mix.Shear
	fmt.Printf("LO f1 = %.4g Hz, RF ≈ %.6g Hz, fd = %.4g Hz (K = %d), disparity = %.0f\n",
		sh.F1, sh.F2, sh.Fd(), sh.K, sh.Disparity())
	fmt.Printf("bit pattern: %v\n\n", asBits(bits))

	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "qpss", Circuit: mix.Ckt,
		Params: repro.QPSSParams{N1: 40, N2: 30, Shear: sh}, // the paper's 40×30 = 1200-point grid
	})
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Raw().(*repro.MPDESolution)
	fmt.Printf("QPSS: %d unknowns, %d Newton iterations, continuation=%v\n\n",
		sol.Stats.Unknowns, sol.Stats.NewtonIters, sol.Stats.UsedContinuation)

	// Fig. 3: differential output surface.
	diff := sol.Differential(mix.OutP, mix.OutM)
	surf3, err := repro.NewSurface("Fig3: differential output (V)", sol.T1Axis(), sol.T2Axis(), diff)
	if err != nil {
		log.Fatal(err)
	}
	surf3.XLabel, surf3.YLabel = "LO t1", "baseband t2"
	fmt.Println(surf3.ASCIIHeatmap(16, 60))

	// Fig. 4: baseband differential output (the bit stream).
	bb := sol.DifferentialBaseband(mix.OutP, mix.OutM)
	s4, err := repro.NewSeries("Fig4: baseband differential output (V)", sol.T2Axis(), bb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s4.ASCIIPlot(12, 60))

	// Eye check against the transmitted bits.
	ac := removeMean(bb)
	eye := repro.MeasureEye(ac, bits)
	if !eye.Open {
		eye = repro.MeasureEye(negate(ac), bits)
	}
	fmt.Printf("eye: open=%v  one-level ≥ %.4f V, zero-level ≤ %.4f V\n\n",
		eye.Open, eye.MinHigh, eye.MaxLow)

	// Fig. 5: multi-time voltage at the MOSFET sources (tail node) — the
	// doubler's sharp waveforms.
	tailSurf := sol.Surface(mix.Tail)
	surf5, err := repro.NewSurface("Fig5: voltage at MOSFET sources (V)", sol.T1Axis(), sol.T2Axis(), tailSurf)
	if err != nil {
		log.Fatal(err)
	}
	surf5.XLabel, surf5.YLabel = "LO t1", "baseband t2"
	fmt.Println(surf5.ASCIIHeatmap(16, 60))
	// Count the tail peaks within one LO period: doubling means two.
	peaks := countPeaks(column0(tailSurf))
	fmt.Printf("tail peaks per LO period: %d (2 = frequency doubling)\n\n", peaks)

	// Fig. 6: one-time reconstruction over 5 LO periods.
	t0 := 2.223e-6 // same window the paper plots
	ts, vs := sol.ReconstructOneTime(mix.Tail, t0, t0+5*sh.T1(), 300)
	s6, err := repro.NewSeries("Fig6: v(source) over 5 LO periods (V)", ts, vs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s6.ASCIIPlot(12, 60))
}

func asBits(b []bool) []int {
	out := make([]int, len(b))
	for i, v := range b {
		if v {
			out[i] = 1
		}
	}
	return out
}

func removeMean(x []float64) []float64 {
	m := 0.0
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

func negate(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = -v
	}
	return out
}

func column0(z [][]float64) []float64 {
	out := make([]float64, len(z))
	for i := range z {
		out[i] = z[i][0]
	}
	return out
}

func countPeaks(x []float64) int {
	n := len(x)
	count := 0
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	_ = math.Abs
	for i := 0; i < n; i++ {
		prev := x[(i-1+n)%n]
		next := x[(i+1)%n]
		if x[i] > prev && x[i] >= next && x[i] > mean {
			count++
		}
	}
	return count
}
