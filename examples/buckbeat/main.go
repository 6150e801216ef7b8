// Beat interference in a switching power converter — the paper's conclusion
// notes the method "can be applied generally to other systems featuring
// closely-spaced tones, such as power conversion circuits".
//
// A buck converter switches at f1 = 1 MHz while its input rail carries a
// small aggressor tone from a neighbouring converter at f2 = f1 − 10 kHz.
// The chopper mixes the two and the output ripple beats at fd = 10 kHz.
// Brute-force transient needs hundreds of switching cycles to reveal one
// beat period; the MPDE grid exposes it directly along the slow axis.
//
// Run with: go run ./examples/buckbeat
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	b := repro.NewBuckBeat(repro.BuckBeatConfig{})
	sh := b.Shear
	fmt.Printf("PWM f1 = %.4g Hz, aggressor f2 = %.6g Hz, beat fd = %.4g Hz (disparity %.0f)\n\n",
		sh.F1, sh.F2, sh.Fd(), sh.Disparity())

	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "qpss", Circuit: b.Ckt,
		Params: repro.QPSSParams{N1: 48, N2: 24, Shear: sh},
	})
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Raw().(*repro.MPDESolution)
	fmt.Printf("QPSS: %d unknowns, %d Newton iterations\n\n",
		sol.Stats.Unknowns, sol.Stats.NewtonIters)

	// The switch node over one PWM period (fast axis) — hard switching.
	swLine := make([]float64, sol.N1)
	for i := 0; i < sol.N1; i++ {
		swLine[i] = sol.At(i, 0)[b.SW]
	}
	s1, err := repro.NewSeries("v(sw) over one PWM period (V)", sol.T1Axis(), swLine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s1.ASCIIPlot(12, 64))

	// The output envelope over one beat period (slow axis).
	bb := sol.BasebandMean(b.Out)
	s2, err := repro.NewSeries("v(out) envelope over one beat period (V)", sol.T2Axis(), bb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s2.ASCIIPlot(12, 64))

	mean := 0.0
	for _, v := range bb {
		mean += v
	}
	mean /= float64(len(bb))
	ac := make([]float64, len(bb))
	for i, v := range bb {
		ac[i] = v - mean
	}
	sp := repro.NewSpectrum(ac, sh.Td()/float64(len(bb)))
	amp, _ := sp.AmplitudeAt(b.Cfg.Fd)
	fmt.Printf("output: mean %.3f V, beat amplitude at fd: %.4f V (aggressor was %.2f V)\n",
		mean, amp, b.Cfg.VRip)
	fmt.Printf("beat rejection: %.1f dB\n", repro.DB(amp/b.Cfg.VRip))
}
