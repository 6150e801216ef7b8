package fft

import (
	"math/rand"
	"testing"
)

// TestPlanTableHitNoAllocs is the plan table's contract: a stored plan is
// returned without allocating, and its transforms, forward and inverse,
// are bit for bit those of a freshly built plan of the same shape.
func TestPlanTableHitNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{500, 2000, 10000, 1024} {
		cached, fresh := PlanFor(n), NewPlan(n)
		if PlanFor(n) != cached {
			t.Fatalf("n=%d: a second lookup built a new plan", n)
		}
		if !raceEnabled {
			if a := testing.AllocsPerRun(10, func() { PlanFor(n) }); a != 0 {
				t.Fatalf("n=%d: %v allocations per table hit, want 0", n, a)
			}
		}
		scratch := make([]complex128, fresh.ScratchLen())
		x := randComplex(rng, n)
		for _, inverse := range []bool{false, true} {
			got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
			if inverse {
				cached.Inverse(got, scratch)
				fresh.Inverse(want, scratch)
			} else {
				cached.Forward(got, scratch)
				fresh.Forward(want, scratch)
			}
			sameBits(t, "cached plan", got, want)
		}
	}
	const n1, n2 = 30, 40
	cached, fresh := Plan2DFor(n1, n2), NewPlan2D(n1, n2)
	if Plan2DFor(n1, n2) != cached {
		t.Fatal("30x40: a second lookup built a new plan")
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(10, func() { Plan2DFor(n1, n2) }); a != 0 {
			t.Fatalf("30x40: %v allocations per table hit, want 0", a)
		}
	}
	scratch := make([]complex128, fresh.ScratchLen())
	x := randComplex(rng, n1*n2)
	got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
	cached.Forward(got, scratch)
	fresh.Forward(want, scratch)
	sameBits(t, "cached 2-D plan", got, want)
	cached.Inverse(got, scratch)
	fresh.Inverse(want, scratch)
	sameBits(t, "cached 2-D plan inverse", got, want)
}

// TestPlanTableBudget checks the table's byte accounting: a plan counts
// every table it retains, and the table stays inside its budget.
func TestPlanTableBudget(t *testing.T) {
	if b := PlanFor(1000).bytes(); b != 16*(2047+1000+2*2048) {
		t.Fatalf("Bluestein 1000: %d bytes, want the twiddles, the chirp and both chirp transforms", b)
	}
	if b := PlanFor(1024).bytes(); b != 16*1023 {
		t.Fatalf("radix-2 1024: %d bytes, want the twiddles alone", b)
	}
	if plans.Bytes() > plans.Budget() {
		t.Fatalf("table holds %d bytes past its %d budget", plans.Bytes(), plans.Budget())
	}
}
