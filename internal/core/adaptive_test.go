package core

import (
	"context"
	"math"
	"testing"
)

func TestGridSpectralTailSeparatesSmoothFromAliased(t *testing.T) {
	const n, N1, N2 = 1, 32, 16
	smooth := make([]float64, N1*N2)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			smooth[j*N1+i] = 3 + math.Cos(2*math.Pi*float64(i)/float64(N1)) +
				0.5*math.Sin(2*math.Pi*float64(j)/float64(N2))
		}
	}
	t1, t2 := GridSpectralTail(smooth, n, N1, N2, 1e-9)
	if t1 > 1e-10 || t2 > 1e-10 {
		t.Errorf("smooth surface has tails (%g, %g), want ~0", t1, t2)
	}
	// Add near-Nyquist content on the fast axis only: tail1 must see it at
	// its amplitude ratio, tail2 must stay clean.
	spiky := append([]float64(nil), smooth...)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			spiky[j*N1+i] += 0.01 * math.Cos(2*math.Pi*float64(14*i)/float64(N1))
		}
	}
	t1, t2 = GridSpectralTail(spiky, n, N1, N2, 1e-9)
	if t1 < 5e-3 || t1 > 2e-2 {
		t.Errorf("tail1 = %g, want ~0.01 (the injected k1=14 line over the unit carrier)", t1)
	}
	if t2 > 1e-10 {
		t.Errorf("tail2 = %g, want ~0 (no slow-axis content injected)", t2)
	}
	// Content below the absolute floor is ignored.
	t1, _ = GridSpectralTail(spiky, n, N1, N2, 0.1)
	if t1 != 0 {
		t.Errorf("tail1 = %g with absFloor above every line, want 0", t1)
	}
}

// TestGridSpectralTailNyquistWeighsOnce: a self-conjugate Nyquist bin is
// its own partner, so it weighs its amplitude once, as GridSpectrum reads
// it. On cos(2πi/8) + 0.5·(−1)^j the slow axis's (0, 3) line is 0.5 against
// the unit fast-axis carrier.
func TestGridSpectralTailNyquistWeighsOnce(t *testing.T) {
	const n, N1, N2 = 1, 8, 6
	x := make([]float64, N1*N2)
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			x[j*N1+i] = math.Cos(2*math.Pi*float64(i)/N1) + 0.5*math.Pow(-1, float64(j))
		}
	}
	t1, t2 := GridSpectralTail(x, n, N1, N2, 1e-9)
	if t1 > 1e-12 {
		t.Errorf("tail1 = %g, want 0 (no fast-axis content beyond k1 = 1)", t1)
	}
	if math.Abs(t2-0.5) > 1e-12 {
		t.Errorf("tail2 = %g, want 0.5 (the Nyquist line over the unit carrier)", t2)
	}
}

func TestAdaptiveQPSSRefinesToTolerance(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := AdaptiveQPSS(context.Background(), ckt, Options{Shear: sh},
		AccuracyOptions{RelTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.N1 < AdaptiveStartN1 || sol.N2 < AdaptiveStartN2 {
		t.Fatalf("final grid %dx%d below the start grid", sol.N1, sol.N2)
	}
	if sol.Stats.GridPoints != sol.N1*sol.N2 {
		t.Errorf("GridPoints %d != final grid %dx%d", sol.Stats.GridPoints, sol.N1, sol.N2)
	}
	// The smooth two-tone RC deck must actually meet the tail target (no
	// stall escape needed).
	if sol.Stats.Tail1 > 1e-3 || sol.Stats.Tail2 > 1e-3 {
		t.Errorf("final tails (%g, %g) above RelTol", sol.Stats.Tail1, sol.Stats.Tail2)
	}
	if sol.Stats.NewtonIters == 0 {
		t.Error("no accumulated Newton iterations")
	}

	// A warm-start seed shaped for some other grid is advisory — it must be
	// dropped, not turned into an X0-size error.
	ckt3, _, _ := twoToneRC(sh, 1, 1)
	stale := make([]float64, 31) // matches no grid
	if _, err := AdaptiveQPSS(context.Background(), ckt3, Options{Shear: sh, X0: stale},
		AccuracyOptions{RelTol: 1e-3}); err != nil {
		t.Fatalf("stale X0 stranded the adaptive solve: %v", err)
	}

	// RelTol=0 must degenerate to the fixed-grid solve.
	ckt2, _, _ := twoToneRC(sh, 1, 1)
	fixed, err := AdaptiveQPSS(context.Background(), ckt2, Options{N1: 8, N2: 8, Shear: sh}, AccuracyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.N1 != 8 || fixed.N2 != 8 || fixed.Stats.Refinements != 0 {
		t.Fatalf("RelTol=0 refined: %dx%d, %d refinements", fixed.N1, fixed.N2, fixed.Stats.Refinements)
	}
}
