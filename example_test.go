package repro_test

import (
	"context"
	"fmt"
	"math"

	"repro"
)

// ExampleAnalyze solves the paper's ideal mixing example with the "qpss"
// analysis and reads the difference tone straight off the slow grid axis.
func ExampleAnalyze() {
	mix := repro.NewIdealMixer(repro.IdealMixerConfig{F1: 1e9, F2: 1e9 - 1e4})
	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "qpss", Circuit: mix.Ckt,
		Params: repro.QPSSParams{N1: 16, N2: 16, Shear: mix.Shear}})
	if err != nil {
		fmt.Println(err)
		return
	}
	bb := res.Raw().(*repro.MPDESolution).BasebandMean(mix.Out)
	fmt.Printf("baseband at t2=0: %.3f (analytic 0.500)\n", bb[0])
	// Output: baseband at t2=0: 0.500 (analytic 0.500)
}

// ExampleNewShear shows the paper's LO-doubling shear: a 450 MHz LO against
// an RF near 900 MHz gives a 15 kHz difference-frequency time scale.
func ExampleNewShear() {
	sh := repro.NewShear(450e6, 2*450e6-15e3, 2)
	fmt.Printf("fd = %.0f Hz, Td = %.4g s, disparity = %.0f\n",
		sh.Fd(), sh.Td(), sh.Disparity())
	// Output: fd = 15000 Hz, Td = 6.667e-05 s, disparity = 30000
}

// ExampleParseNetlistString runs a DC analysis on a parsed deck.
func ExampleParseNetlistString() {
	deck, err := repro.ParseNetlistString(`
V1 in 0 DC 9
R1 in mid 2k
R2 mid 0 1k
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "dc", Circuit: deck.Ckt, Params: repro.DCParams{}})
	if err != nil {
		fmt.Println(err)
		return
	}
	x := res.Raw().([]float64)
	mid, _ := deck.Ckt.NodeIndex("mid")
	fmt.Printf("v(mid) = %.3f V\n", x[mid])
	// Output: v(mid) = 3.000 V
}

// ExampleAnalyze_ac sweeps an RC low-pass and reports its corner frequency.
func ExampleAnalyze_ac() {
	ckt := repro.NewCircuit("rc")
	ckt.V("V1", "in", "0", repro.DC(0))
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1e-6)
	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "ac", Circuit: ckt,
		Params: repro.ACParams{Source: "V1", Freqs: repro.ACLogSweep(1, 1e5, 300)}})
	if err != nil {
		fmt.Println(err)
		return
	}
	out, _ := ckt.NodeIndex("out")
	fc, err := res.Raw().(*repro.ACResult).Corner3dB(out)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("corner ≈ %.0f Hz (analytic %.0f Hz)\n", fc, 1/(2*math.Pi*1000*1e-6))
	// Output: corner ≈ 159 Hz (analytic 159 Hz)
}

// ExampleAnalyze_shooting computes a periodic steady state and verifies
// closure.
func ExampleAnalyze_shooting() {
	ckt := repro.NewCircuit("pss")
	ckt.V("V1", "in", "0", repro.Sine{Amp: 1, F1: 1e3, K1: 1})
	ckt.R("R1", "in", "out", 1000)
	ckt.C("C1", "out", "0", 1e-7)
	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "shooting", Circuit: ckt,
		Params: repro.ShootingParams{Period: 1e-3, Steps: 128}})
	if err != nil {
		fmt.Println(err)
		return
	}
	pss := res.Raw().(*repro.ShootingResult)
	fmt.Printf("converged in %d iterations, periodicity error < 1e-9: %v\n",
		pss.Iterations, pss.FinalError < 1e-9)
	// Output: converged in 2 iterations, periodicity error < 1e-9: true
}
