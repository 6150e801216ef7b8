package core_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/la"
)

// TestQPSSRepeatSolveLoadsGridPlan: two back-to-back 40×30 balanced-mixer
// QPSS solves give bit-identical solutions and equal work counters. The
// second compiles no block-stencil plan: its grid Jacobian's plan, like the
// envelope march's line plan, is a hit in the process-wide table. Both
// report one pattern build, so per-job stats do not depend on the table.
func TestQPSSRepeatSolveLoadsGridPlan(t *testing.T) {
	mix := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{})
	opt := core.Options{N1: 40, N2: 30, Shear: mix.Shear}
	solve := func() *core.Solution {
		t.Helper()
		sol, err := core.QPSS(context.Background(), mix.Ckt, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.PatternBuilds != 1 {
			t.Fatalf("PatternBuilds = %d, want 1", sol.Stats.PatternBuilds)
		}
		return sol
	}
	first := solve()
	hits, misses := la.StencilCacheStats()
	second := solve()
	hits2, misses2 := la.StencilCacheStats()
	// The grid's Prepare ran (PatternBuilds is 1) and compiled nothing, so
	// it was a hit; so was the march's line stencil.
	if misses2 != misses || hits2 < hits+2 {
		t.Fatalf("the repeated solve took %d table hits and %d misses, want ≥ 2 and 0", hits2-hits, misses2-misses)
	}
	if len(first.X) != len(second.X) {
		t.Fatal("solution sizes differ")
	}
	for i := range first.X {
		if math.Float64bits(first.X[i]) != math.Float64bits(second.X[i]) {
			t.Fatalf("X[%d] differs bitwise: %x vs %x", i, math.Float64bits(first.X[i]), math.Float64bits(second.X[i]))
		}
	}
	a, b := first.Stats, second.Stats
	for _, s := range []*core.Stats{&a, &b} {
		s.AssemblyTime, s.FactorTime, s.Trace = 0, 0, nil
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats differ:\nfirst  %+v\nsecond %+v", a, b)
	}
}
