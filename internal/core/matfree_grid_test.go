package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/rf"
	"repro/internal/solver"
)

// TestQPSSMatrixFreeOneGridIteration: every matrix-free Newton step is
// solved to GMRESTol, so from the march start a matrix-free QPSS solve
// takes the one grid iteration direct takes: one preconditioner build, the
// same Newton count (the march's line solves included) and no direct
// rescue. The paper mixer is the Fig. 3–6 deck with its PRBS7 bits.
func TestQPSSMatrixFreeOneGridIteration(t *testing.T) {
	mixSh := core.Shear{F1: 1e6, F2: 0.875e6, K: 1}
	paper := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{Bits: rf.PRBS7(0x4D, 8)})
	for _, d := range []struct {
		name   string
		ckt    func() *circuit.Circuit
		sh     core.Shear
		n1, n2 int
	}{
		{"nonlinear mixer", func() *circuit.Circuit { return core.NonlinearMixer(mixSh) }, mixSh, 24, 16},
		{"nonlinear mixer", func() *circuit.Circuit { return core.NonlinearMixer(mixSh) }, mixSh, 40, 30},
		{"paper mixer", func() *circuit.Circuit { return paper.Ckt }, paper.Shear, 40, 30},
	} {
		name := fmt.Sprintf("%s %dx%d", d.name, d.n1, d.n2)
		solve := func(linear solver.LinearSolverKind) core.Stats {
			t.Helper()
			opt := core.Options{N1: d.n1, N2: d.n2, Shear: d.sh}
			opt.Newton.Linear = linear
			sol, err := core.QPSS(context.Background(), d.ckt(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return sol.Stats
		}
		direct, mf := solve(solver.DirectSparse), solve(solver.MatrixFree)
		t.Logf("%s: %d Newton iterations (direct %d), %d builds, %d GMRES iterations",
			name, mf.NewtonIters, direct.NewtonIters, mf.PrecondBuilds, mf.LinearIters)
		if mf.PrecondBuilds != 1 || mf.NewtonIters != direct.NewtonIters || mf.GMRESFallbacks != 0 {
			t.Errorf("%s: %d preconditioner builds, %d Newton iterations (direct %d), %d fallbacks; want 1, equal, 0",
				name, mf.PrecondBuilds, mf.NewtonIters, direct.NewtonIters, mf.GMRESFallbacks)
		}
	}
}
