// Computational speedup of the MPDE method over single-time shooting
// (paper Section 3, "Computational speedup").
//
// The closest traditional method is shooting across one period of the
// difference frequency with ≥10 steps per LO period: its cost grows linearly
// with the disparity f1/fd, while the MPDE grid cost is independent of it.
// This example sweeps the disparity on the unbalanced switching mixer,
// times both methods, and reports the crossover — the paper observes
// break-even near disparity ≈ 200 and >100× beyond 10⁴.
//
// Run with: go run ./examples/speedup
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	f1 := 100e6
	fmt.Println("disparity | MPDE QPSS | shooting(Td) | speedup")
	fmt.Println("----------+-----------+--------------+--------")
	for _, disparity := range []float64{20, 50, 100, 200, 500, 1000, 2000} {
		fd := f1 / disparity

		// MPDE: grid cost independent of disparity.
		mixA := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: fd})
		t0 := time.Now()
		_, err := repro.Analyze(context.Background(), repro.AnalysisRequest{
			Method: "qpss", Circuit: mixA.Ckt,
			Params: repro.QPSSParams{N1: 40, N2: 30, Shear: mixA.Shear}})
		if err != nil {
			log.Fatalf("disparity %g: MPDE: %v", disparity, err)
		}
		mpdeTime := time.Since(t0)

		// Shooting across one difference period with 10 steps per LO cycle.
		mixB := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: fd})
		steps := int(10 * disparity)
		t0 = time.Now()
		_, err = repro.Analyze(context.Background(), repro.AnalysisRequest{
			Method: "shooting", Circuit: mixB.Ckt,
			Params: repro.ShootingParams{Period: 1 / fd, Steps: steps}})
		if err != nil {
			log.Fatalf("disparity %g: shooting: %v", disparity, err)
		}
		shootTime := time.Since(t0)

		fmt.Printf("%9.0f | %9s | %12s | %6.1fx\n",
			disparity, mpdeTime.Round(time.Millisecond),
			shootTime.Round(time.Millisecond),
			float64(shootTime)/float64(mpdeTime))
	}
	fmt.Println()
	fmt.Println("The paper's mixer runs at disparity 30000 (450 MHz / 15 kHz), where")
	fmt.Println("the linear trend above implies the >100x advantage it reports;")
	fmt.Println("brute-force shooting at that disparity needs ≥300000 time steps.")
}
