package transient

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/solver"
)

// stepAllocs returns the heap allocations per accepted step of a fixed-step
// GEAR2 march of ckt from its DC point (the difference between a 2N- and an
// N-step run, so per-run set-up cancels) and the Newton iterations per step.
func stepAllocs(t *testing.T, ckt *circuit.Circuit, h float64, newton solver.Options) (allocs, iters float64) {
	t.Helper()
	const n = 200
	run := func(steps int) *Result {
		res, err := Run(context.Background(), ckt, Options{Method: GEAR2, TStop: float64(steps) * h,
			Step: h, FixedStep: true, Newton: newton})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a1 := testing.AllocsPerRun(3, func() { run(n) })
	a2 := testing.AllocsPerRun(3, func() { run(2 * n) })
	res := run(n)
	if res.Rejected != 0 {
		t.Fatalf("%d rejected steps: the per-step difference needs a clean march", res.Rejected)
	}
	return (a2 - a1) / n, float64(res.Stats.NewtonIters) / float64(res.Steps)
}

// TestRunStepAllocsBounded is the march's allocation contract: device
// Jacobians, the step Jacobian, the residual and the LU all live for the
// run, so an accepted step allocates only its stored trajectory point and
// the solve's bookkeeping — a bound that holds however many Newton
// iterations the step takes. A Newton step clamp multiplies the rectifier's
// iterations per step; its allocations per step must not move.
func TestRunStepAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	rect := circuit.New("rect")
	rect.V("V1", "in", "0", device.Sine{Amp: 5, F1: 1e3, K1: 1})
	rect.D("D1", "in", "out", 1e-14)
	rect.R("RL", "out", "0", 10e3)
	rect.C("CL", "out", "0", 1e-6)
	const h = 2e-5
	few, fewIters := stepAllocs(t, rect, h, solver.Options{})
	many, manyIters := stepAllocs(t, rect, h, solver.Options{MaxStep: 0.1})

	t.Logf("allocs/step: %.2f at %.2f Newton iterations/step, %.2f at %.2f", few, fewIters, many, manyIters)
	if manyIters < 2*fewIters {
		t.Fatalf("the step clamp gave %.2f Newton iterations/step vs %.2f: the comparison needs more", manyIters, fewIters)
	}
	const bound = 3
	if few > bound || many > bound {
		t.Fatalf("allocs/step = %.2f and %.2f, want ≤ %d", few, many, bound)
	}
	if many > few+0.5 {
		t.Fatalf("allocs/step grow with Newton iterations: %.2f at %.2f iterations/step vs %.2f at %.2f",
			many, manyIters, few, fewIters)
	}
}
