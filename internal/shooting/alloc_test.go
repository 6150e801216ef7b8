package shooting

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/solver"
)

// TestPropagateNoAllocs: a period of integration allocates nothing per step
// — the step solves, the device evaluations, the sensitivity updates and
// the orbit record all run in per-run storage — so the allocations per
// propagate do not grow with the step count.
func TestPropagateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	const f = 1e3
	ckt := circuit.New("rect")
	ckt.V("V1", "in", "0", device.Sine{Amp: 5, F1: f, K1: 1})
	ckt.D("D1", "in", "out", 1e-14)
	ckt.R("RL", "out", "0", 10e3)
	ckt.C("CL", "out", "0", 1e-6)
	ckt.Finalize()
	opt := solver.NewOptions()
	x0 := make([]float64, ckt.Size())
	perPropagate := func(steps int) float64 {
		g := newIntegrator(context.Background(), ckt, 1/f/float64(steps), steps, opt)
		run := func() {
			if _, err := g.propagate(x0); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: per-run storage, compiled stamps, the first factorisations
		return testing.AllocsPerRun(5, run)
	}
	few, many := perPropagate(200), perPropagate(2000)
	t.Logf("allocs/propagate: %v at 200 steps, %v at 2000", few, many)
	if many > few {
		t.Fatalf("allocs/propagate grow with the step count: %v at 200 steps, %v at 2000", few, many)
	}
}
