package analysis

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// TestWorkEstimates pins each sweepable method's work estimate, in
// transient time steps: transient TStop/Step, shooting Steps times two
// periods, and the grid methods their point counts at the measured
// per-point ratios. The sweep starts jobs longest-estimated-first by them.
func TestWorkEstimates(t *testing.T) {
	sh := core.Shear{F1: 100e6, F2: 100e6 - 100e3, K: 1} // disparity 1000
	cases := []struct {
		name   string
		params any
		want   float64
	}{
		{"transient", TransientParams{TStop: 3e-6, Step: 1e-9}, 3000},
		{"transient default step", TransientParams{TStop: 3e-6}, 1000},
		{"shooting", ShootingParams{Period: 1e-5, Steps: 10000}, 20000},
		{"shooting default steps", ShootingParams{Period: 1e-5}, 400},
		{"qpss", QPSSParams{N1: 40, N2: 30, Shear: sh}, 1800},
		{"qpss default grid", QPSSParams{Shear: sh}, 1800},
		{"hb", HBParams{F1: 1e6, F2: 0.9e6, N1: 64, N2: 4}, 102400},
		{"hb single tone", HBParams{F1: 1e6, N1: 64, N2: 4}, 25600},
		{"envelope", EnvelopeParams{N1: 40, Shear: sh, T2Stop: 1e-5, StepT2: 1e-5 / 60}, 1920},
		{"envelope default steps", EnvelopeParams{Shear: sh}, 960},
		{"dc has none", DCParams{}, 0},
	}
	for _, c := range cases {
		if got := Work(c.params); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: work %v, want %v", c.name, got, c.want)
		}
	}

	// The disparity sweep's baselines at d = 1000 outweigh every other job
	// of the sweep, so they start first.
	work := map[string]float64{}
	for _, d := range []float64{50, 200, 1000} {
		in := BuildInput{Target: Target{Shear: core.Shear{F1: 100e6, F2: 100e6 - 100e6/d, K: 1}}, Point: GridPoint{N1: 40, N2: 30}}
		for _, m := range []string{"qpss", "shooting", "transient"} {
			desc, _ := Lookup(m)
			p, err := desc.SweepParams(in)
			if err != nil {
				t.Fatal(err)
			}
			work[fmt.Sprint(m, "/", d)] = Work(p)
		}
	}
	if tr, sh := work["transient/1000"], work["shooting/1000"]; math.Abs(tr-30000) > 1e-6 || sh != 20000 {
		t.Fatalf("disparity 1000: transient %v, shooting %v; want 30000 and 20000", tr, sh)
	}
	for k, w := range work {
		if k != "transient/1000" && k != "shooting/1000" && w >= work["shooting/1000"] {
			t.Errorf("%s: work %v not below the disparity-1000 baselines", k, w)
		}
	}
}
