package hb

import (
	"context"
	"testing"

	"repro/internal/ckts"
	"repro/internal/transient"
)

// precondAllocs returns the heap allocations of a warm companion-
// preconditioner build for the unbalanced mixer on an N1×N2 grid.
func precondAllocs(t *testing.T, N1, N2 int) float64 {
	t.Helper()
	um := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: 1e6, LOAmp: 0.3, RFAmp: 0.02})
	n := um.Ckt.Size()
	xdc, _, err := transient.DC(context.Background(), um.Ckt, transient.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, N1*N2*n)
	for p := 0; p < N1*N2; p++ {
		copy(x[p*n:(p+1)*n], xdc)
	}
	w := newWorkspace(um.Ckt, Options{F1: 100e6, F2: um.Shear.F2, N1: N1, N2: N2}, n)
	build := func() {
		if _, err := w.fdPreconditioner(x); err != nil {
			t.Fatal(err)
		}
	}
	build() // the first build compiles the stencil
	return testing.AllocsPerRun(5, build)
}

// TestHBPreconditionerAllocsFlat is the companion preconditioner's
// allocation contract: the per-point C and G blocks and the companion
// Jacobian live for the solve, so a warm build allocates only its LU
// factors — the same count on every grid.
func TestHBPreconditionerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	small, large := precondAllocs(t, 16, 4), precondAllocs(t, 32, 8)
	t.Logf("allocs per warm build: %.0f at 16x4, %.0f at 32x8", small, large)
	if large != small {
		t.Fatalf("a warm build allocates %.0f at 32x8 but %.0f at 16x4: it allocates per grid point", large, small)
	}
}
