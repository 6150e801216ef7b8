package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/solver"
)

// TestQPSSMatrixFreeMatchesDirect solves the same two-tone problem with the
// assembled direct path and the matrix-free GMRES path and requires the two
// converged grids to agree far inside the Newton tolerance. It also pins the
// observability contract: the matrix-free solve reports operator applies and
// preconditioner builds, and never assembles a global LU unless GMRES falls
// back. The matrix-free solve starts from the DC grid, so that no march's
// line LUs enter its counters.
func TestQPSSMatrixFreeMatchesDirect(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	opt := Options{N1: 32, N2: 24, Shear: sh}

	ckt1, _, _ := twoToneRC(sh, 1, 0.5)
	direct, err := QPSS(context.Background(), ckt1, opt)
	if err != nil {
		t.Fatal(err)
	}

	ckt2, _, _ := twoToneRC(sh, 1, 0.5)
	mfOpt := opt
	mfOpt.Newton.Linear = solver.MatrixFree
	mfOpt.X0 = dcStart(t, ckt2, opt.N1*opt.N2)
	mf, err := QPSS(context.Background(), ckt2, mfOpt)
	if err != nil {
		t.Fatal(err)
	}

	if len(mf.X) != len(direct.X) {
		t.Fatalf("grid size mismatch: %d vs %d", len(mf.X), len(direct.X))
	}
	maxDiff := 0.0
	for i := range mf.X {
		if d := math.Abs(mf.X[i] - direct.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Fatalf("matrix-free grid deviates from direct by %v", maxDiff)
	}

	st := mf.Stats
	if st.OperatorApplies == 0 {
		t.Fatal("matrix-free solve reported no operator applies")
	}
	if st.PrecondBuilds == 0 {
		t.Fatal("matrix-free solve reported no preconditioner builds")
	}
	if st.LinearIters == 0 {
		t.Fatal("matrix-free solve reported no GMRES iterations")
	}
	// Every line block beyond the representative refactors against the
	// shared symbolic analysis.
	if want := st.PrecondBuilds * opt.N2; st.BatchReuse < want/2 {
		t.Fatalf("BatchReuse = %d, want at least %d (N2=%d lines per build)",
			st.BatchReuse, want/2, opt.N2)
	}
	if st.GMRESFallbacks == 0 && st.Factorizations != 0 {
		t.Fatalf("matrix-free solve paid %d full factorisations without a fallback", st.Factorizations)
	}
}

// TestQPSSMatrixFreeMixerNoFallbacks pins the hard case: the stiff
// exponential mixer must converge through GMRES alone — zero direct-LU
// rescues, zero global factorisations. (The abandoned residual-differencing
// operator failed exactly here: finite-difference noise stalled every late
// Newton solve into the fallback path.) It starts from the DC grid, the
// hard start, which also keeps the march's line LUs out of the counters.
func TestQPSSMatrixFreeMixerNoFallbacks(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	var opt Options
	opt.N1, opt.N2, opt.Shear = 24, 16, sh
	opt.Newton.Linear = solver.MatrixFree
	opt.X0 = dcStart(t, ckt, opt.N1*opt.N2)
	sol, err := QPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.GMRESFallbacks != 0 {
		t.Fatalf("mixer matrix-free solve fell back to direct %d times", st.GMRESFallbacks)
	}
	if st.Factorizations != 0 {
		t.Fatalf("mixer matrix-free solve paid %d global factorisations", st.Factorizations)
	}
	if st.OperatorApplies == 0 || st.LinearIters == 0 {
		t.Fatalf("matrix-free path did not run: %+v", st)
	}
}

// TestQPSSMatrixFreeForcingTermMatchesDirect solves the stiff mixer with
// the direct path and with matrix-free GMRES, whose Newton steps are only as
// accurate as the Eisenstat–Walker forcing term asks, on three grids. The
// grids must agree far inside the Newton tolerance (about 3e-6 here): a loose
// GMRES step is shorter than the Newton step, so a solve that declared
// convergence on one would stop early, around 4e-4 off the direct grid.
func TestQPSSMatrixFreeForcingTermMatchesDirect(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	for _, g := range [][2]int{{24, 16}, {40, 30}, {64, 48}} {
		opt := Options{N1: g[0], N2: g[1], Shear: sh}
		direct, err := QPSS(context.Background(), nonlinearMixer(sh), opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Newton.Linear = solver.MatrixFree
		mf, err := QPSS(context.Background(), nonlinearMixer(sh), opt)
		if err != nil {
			t.Fatal(err)
		}
		maxDiff := 0.0
		for i := range mf.X {
			maxDiff = math.Max(maxDiff, math.Abs(mf.X[i]-direct.X[i]))
		}
		t.Logf("%dx%d: max|ΔX| = %.3g, %d Newton, %d GMRES iterations",
			g[0], g[1], maxDiff, mf.Stats.NewtonIters, mf.Stats.LinearIters)
		if maxDiff > 1e-8 {
			t.Errorf("%dx%d: matrix-free grid deviates from direct by %v", g[0], g[1], maxDiff)
		}
		if mf.Stats.GMRESFallbacks != 0 {
			t.Errorf("%dx%d: %d GMRES fallbacks", g[0], g[1], mf.Stats.GMRESFallbacks)
		}
	}
}

// TestAdaptiveQPSSMatrixFree runs the adaptive loop in matrix-free mode: the
// coarse round is solved direct (the refinement anchor), refined rounds go
// matrix-free, and the result must match the all-direct adaptive solve.
func TestAdaptiveQPSSMatrixFree(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	acc := AccuracyOptions{RelTol: 1e-3}
	opt := Options{N1: 8, N2: 8, Shear: sh}

	ckt1, _, _ := twoToneRC(sh, 1, 1)
	direct, err := AdaptiveQPSS(context.Background(), ckt1, opt, acc)
	if err != nil {
		t.Fatal(err)
	}

	ckt2, _, _ := twoToneRC(sh, 1, 1)
	mfOpt := opt
	mfOpt.Newton.Linear = solver.MatrixFree
	mf, err := AdaptiveQPSS(context.Background(), ckt2, mfOpt, acc)
	if err != nil {
		t.Fatal(err)
	}

	if mf.N1 != direct.N1 || mf.N2 != direct.N2 {
		t.Fatalf("adaptive grids diverged: %dx%d vs %dx%d", mf.N1, mf.N2, direct.N1, direct.N2)
	}
	maxDiff := 0.0
	for i := range mf.X {
		if d := math.Abs(mf.X[i] - direct.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Fatalf("adaptive matrix-free grid deviates from direct by %v", maxDiff)
	}
	if direct.Stats.Refinements > 0 && mf.Stats.OperatorApplies == 0 {
		t.Fatal("refined rounds never used the matrix-free operator")
	}
}
