package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// hardMixer builds a circuit whose QPSS Newton is deliberately hostile from
// a cold start: a strongly driven diode clamp with a huge capacitive load,
// so the replicated-DC initial guess is far from the quasi-periodic orbit.
func hardMixer(sh Shear) *circuit.Circuit {
	ckt := circuit.New("hard")
	ckt.V("V1", "in", "0", device.Sum{
		device.Sine{Amp: 3, F1: sh.F1, F2: sh.F2, K1: 1},
		device.Sine{Amp: 3, F1: sh.F1, F2: sh.F2, K2: 1},
	})
	ckt.R("R1", "in", "a", 50)
	ckt.D("D1", "a", "0", 1e-14)
	ckt.D("D2", "0", "a", 1e-14) // anti-parallel clamp
	ckt.C("C1", "a", "0", 1e-9)
	return ckt
}

func TestQPSSContinuationRescuesHardStart(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt := hardMixer(sh)
	// Starve Newton so the direct attempt fails and the continuation path
	// runs; continuation must still deliver a solution.
	opt := Options{N1: 24, N2: 12, Shear: sh}
	opt.Newton = solver.NewOptions()
	opt.Newton.MaxIter = 6 // starve the direct path; the λ=0 anchor still fits
	sol, err := QPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatalf("continuation did not rescue: %v", err)
	}
	if !sol.Stats.UsedContinuation {
		t.Fatal("expected the continuation path to be used")
	}
	if sol.Stats.ContinuationSolves < 2 {
		t.Fatalf("suspiciously few continuation solves: %+v", sol.Stats)
	}
	// The reported iterate is the rescuing solve's, not the failed try's.
	if !sol.Stats.Converged {
		t.Fatalf("a rescued solve reports Converged = false (residual %.3e)", sol.Stats.Residual)
	}
	// The solution must satisfy the MPDE residual.
	res, err := sol.ResidualCheck(Options{N1: 24, N2: 12, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-5 {
		t.Fatalf("continuation solution residual %v", res)
	}
}

func TestQPSSNoContinuationFailsFast(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt := hardMixer(sh)
	opt := Options{N1: 24, N2: 12, Shear: sh, NoContinuation: true}
	opt.Newton = solver.NewOptions()
	opt.Newton.MaxIter = 3
	if _, err := QPSS(context.Background(), ckt, opt); err == nil {
		t.Fatal("with continuation disabled and a starved Newton, QPSS should fail")
	}
}

func TestQPSSNegativeFd(t *testing.T) {
	// F2 above F1 (fd < 0) must work end to end.
	sh := Shear{F1: 1e6, F2: 1.1e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 0.5)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 24, N2: 24, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	bb := sol.BasebandMean(out)
	if len(bb) != 24 {
		t.Fatal("baseband length")
	}
	res, err := sol.ResidualCheck(Options{N1: 24, N2: 24, Shear: sh})
	if err != nil || res > 1e-6 {
		t.Fatalf("negative-fd residual %v (%v)", res, err)
	}
}

func TestQPSSMinimalGrids(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	// Order-2 differences on a 2-point axis must be rejected.
	ckt, _, _ := twoToneRC(sh, 1, 1)
	if _, err := QPSS(context.Background(), ckt, Options{N1: 2, N2: 8, Shear: sh, DiffT1: Order2}); err == nil {
		t.Fatal("Order2 on N1=2 should be rejected")
	}
	// Order-1 on tiny grids should still solve (badly, but solve).
	ckt2, _, _ := twoToneRC(sh, 1, 1)
	if _, err := QPSS(context.Background(), ckt2, Options{N1: 4, N2: 4, Shear: sh}); err != nil {
		t.Fatalf("tiny grid failed: %v", err)
	}
}

func TestQPSSMixedDiffOrders(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 24, N2: 24, Shear: sh,
		DiffT1: Order2, DiffT2: Order1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.ResidualCheck(Options{N1: 24, N2: 24, Shear: sh,
		DiffT1: Order2, DiffT2: Order1})
	if err != nil || res > 1e-6 {
		t.Fatalf("mixed-order residual %v (%v)", res, err)
	}
}

func TestResidualCheckRejectsWrongGrid(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 8, N2: 8, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.ResidualCheck(Options{N1: 16, N2: 8, Shear: sh}); err == nil {
		t.Fatal("grid mismatch should error")
	}
}

func TestQPSSKCLPropertyAtSolution(t *testing.T) {
	// At the QPSS solution, the instantaneous node currents (conductive +
	// capacitive difference quotients) sum to ~zero on internal nodes at
	// every grid point — checked implicitly by the residual, but here we
	// verify the public OneTime reconstruction stays within the source
	// rails everywhere, a global sanity invariant.
	sh := Shear{F1: 1e6, F2: 0.9e6, K: 1}
	ckt, _, _ := twoToneRC(sh, 1, 1)
	sol, err := QPSS(context.Background(), ckt, Options{N1: 32, N2: 32, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	for p := 0; p < 500; p++ {
		tt := sh.Td() * float64(p) / 500
		v := sol.OneTime(out, tt)
		if v < -2.2 || v > 2.2 {
			t.Fatalf("passive RC output exceeds drive rails: %v at t=%g", v, tt)
		}
	}
}

// TestResidualCheckLean: ResidualCheck's residual-only pass returns the
// full assembler's norm bit for bit, pinned here at a perturbed 16×8
// solution,
// while allocating neither per-point Jacobian blocks nor a source table:
// its allocation count does not grow with the grid and its bytes stay
// within the three grid vectors it reads and writes.
func TestResidualCheckLean(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	type check struct{ allocs, bytes, grid float64 }
	measure := func(n1, n2 int, pin uint64) check {
		opt := Options{N1: n1, N2: n2, Shear: sh, AssemblyWorkers: 1}
		sol, err := QPSS(context.Background(), ckt, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb the solution so that the norm is far above round-off.
		for i := range sol.X {
			sol.X[i] += 1e-3 * float64(i%5)
		}
		got, err := sol.ResidualCheck(opt)
		if err != nil {
			t.Fatal(err)
		}
		r, _, _ := newAssembler(ckt, opt).assemble(sol.X, 1, false)
		if want := la.NormInf(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d: ResidualCheck = %v, full assembler %v", n1, n2, got, want)
		}
		if pin != 0 && math.Float64bits(got) != pin {
			t.Fatalf("%dx%d: ResidualCheck = %v (bits %#x), pinned bits %#x", n1, n2, got, math.Float64bits(got), pin)
		}
		allocs := testing.AllocsPerRun(3, func() { sol.ResidualCheck(opt) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sol.ResidualCheck(opt)
		runtime.ReadMemStats(&m1)
		return check{allocs, float64(m1.TotalAlloc - m0.TotalAlloc), float64(3 * 8 * len(sol.X))}
	}
	small := measure(16, 8, 0x3f70624dd2f1b77f)
	large := measure(32, 16, 0)
	if raceEnabled {
		return // allocation bounds do not hold under the race detector
	}
	t.Logf("allocs %.0f at 16x8, %.0f at 32x16; bytes %.0f and %.0f (grid vectors %.0f and %.0f)",
		small.allocs, large.allocs, small.bytes, large.bytes, small.grid, large.grid)
	if large.allocs != small.allocs {
		t.Fatalf("ResidualCheck allocates %.0f times at 32x16 but %.0f at 16x8: it allocates per grid point", large.allocs, small.allocs)
	}
	if large.bytes > large.grid+64<<10 {
		t.Fatalf("ResidualCheck allocates %.0f bytes at 32x16, more than its grid vectors (%.0f) plus 64 KiB", large.bytes, large.grid)
	}
}
