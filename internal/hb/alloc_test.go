package hb

import (
	"context"
	"testing"

	"repro/internal/ckts"
	"repro/internal/transient"
)

// mixerWorkspace returns an HB workspace for the unbalanced mixer on an
// N1×N2 grid and the DC operating point replicated over the grid.
func mixerWorkspace(t *testing.T, N1, N2 int) (*workspace, []float64) {
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
	return newWorkspace(um.Ckt, Options{F1: 100e6, F2: um.Shear.F2, N1: N1, N2: N2}, n), x
}

// precondAllocs returns the heap allocations of a warm companion-
// preconditioner build for the unbalanced mixer on an N1×N2 grid.
func precondAllocs(t *testing.T, N1, N2 int) float64 {
	t.Helper()
	w, x := mixerWorkspace(t, N1, N2)
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

// applyAllocs returns the heap allocations of a warm Jacobian-vector
// product and of a warm residual evaluation on an N1×N2 grid.
func applyAllocs(t *testing.T, N1, N2 int) (apply, residual float64) {
	t.Helper()
	w, x := mixerWorkspace(t, N1, N2)
	if _, err := w.fdPreconditioner(x); err != nil {
		t.Fatal(err)
	}
	op := newHBOperator(w)
	v, out := make([]float64, len(x)), make([]float64, len(x))
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	op.Apply(v, out) // the first inverse transform builds the inverse chirps
	w.residual(x, out)
	apply = testing.AllocsPerRun(5, func() { op.Apply(v, out) })
	residual = testing.AllocsPerRun(5, func() { w.residual(x, out) })
	return apply, residual
}

// TestHBApplyAllocsFlat is the Newton loop's allocation contract: the
// operator, its buffers and the FFT plan live for the solve, so a warm
// operator apply and a warm residual allocate the same on every grid.
func TestHBApplyAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	smallA, smallR := applyAllocs(t, 16, 4)
	largeA, largeR := applyAllocs(t, 32, 8)
	t.Logf("allocs per warm apply: %.0f at 16x4, %.0f at 32x8; per warm residual: %.0f, %.0f",
		smallA, largeA, smallR, largeR)
	if largeA != smallA || largeR != smallR {
		t.Fatalf("apply allocates %.0f at 32x8 but %.0f at 16x4, residual %.0f but %.0f: they allocate per grid point",
			largeA, smallA, largeR, smallR)
	}
}
