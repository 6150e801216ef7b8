// Quickstart: the paper's ideal mixing example (Section 2).
//
// Two tones at f1 = 1 GHz and f2 = f1 − 10 kHz drive an ideal multiplier.
// We show (a) the unsheared multi-time representation, which hides the
// difference frequency (Fig. 1), (b) the sheared representation, whose t2
// axis spans the 0.1 ms difference period and exposes it (Fig. 2), and
// (c) the MPDE quasi-periodic steady state of the multiplier-as-circuit,
// whose t1-averaged baseband is the 10 kHz difference tone of Eq. (6).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	f1 := 1e9
	f2 := f1 - 1e4 // closely spaced: Δf = 10 kHz
	sh := repro.NewShear(f1, f2, 1)
	fmt.Printf("tones: f1=%.4g Hz  f2=%.4g Hz  fd=%.4g Hz  disparity=%.0f\n",
		f1, f2, sh.Fd(), sh.Disparity())

	// The product waveform z(t) = cos(2πf1t)·cos(2πf2t) on the torus.
	prod := productWave{}

	un := repro.SampleUnsheared(prod, sh, 24, 48)
	shd := repro.SampleSheared(prod, sh, 24, 48)
	surfU, err := repro.NewSurface("Fig1: unsheared ẑ1(t1,t2)", un.T1, un.T2, un.Z)
	if err != nil {
		log.Fatal(err)
	}
	surfU.XLabel, surfU.YLabel = "t1(ns)", "t2(ns)"
	surfS, err := repro.NewSurface("Fig2: sheared ẑ2(t1,t2)", shd.T1, shd.T2, shd.Z)
	if err != nil {
		log.Fatal(err)
	}
	surfS.XLabel, surfS.YLabel = "t1(ns)", "t2(0..0.1ms)"
	fmt.Println(surfU.ASCIIHeatmap(16, 48))
	fmt.Println(surfS.ASCIIHeatmap(16, 48))

	// The same mixing as a circuit, solved with the MPDE method.
	mix := repro.NewIdealMixer(repro.IdealMixerConfig{F1: f1, F2: f2})
	res, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
		Method: "qpss", Circuit: mix.Ckt,
		Params: repro.QPSSParams{
			N1: 32, N2: 48, Shear: mix.Shear,
			DiffT1: repro.Order2, DiffT2: repro.Order2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Raw().(*repro.MPDESolution)
	bb := sol.BasebandMean(mix.Out)
	t2 := sol.T2Axis()
	series, err := repro.NewSeries("baseband v(out) along t2", t2, bb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(series.ASCIIPlot(12, 64))

	// Verify against the analytic difference tone (paper Eq. 6): ½·cos(2π·fd·t2).
	maxErr := 0.0
	for j := range bb {
		want := 0.5 * math.Cos(2*math.Pi*math.Abs(sh.Fd())*t2[j])
		if e := math.Abs(bb[j] - want); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("baseband vs analytic ½·cos(2π·fd·t2): max error %.3e\n", maxErr)
	fmt.Printf("MPDE grid %dx%d, %d unknowns, %d Newton iterations\n",
		sol.N1, sol.N2, sol.Stats.Unknowns, sol.Stats.NewtonIters)
}

// productWave is ẑ_s(θ1,θ2) = cos(2πθ1)·cos(2πθ2), the paper's Eq. (8).
type productWave struct{}

func (productWave) Eval(t float64) float64 {
	return math.Cos(2*math.Pi*1e9*t) * math.Cos(2*math.Pi*(1e9-1e4)*t)
}

func (productWave) EvalTorus(th1, th2 float64) float64 {
	return math.Cos(2*math.Pi*th1) * math.Cos(2*math.Pi*th2)
}
