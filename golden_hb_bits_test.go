// Bit-exact regression fixture for harmonic balance: five solves whose
// solution vectors are pinned by the SHA-256 of their IEEE-754 bit
// patterns, together with their Newton and GMRES counts. Each solve runs
// twice in one process, so the second one factors preconditioner patterns
// the first has already analysed; both must land on the stored bits.
// Regenerate after an INTENDED numerical change with:
//
//	go test -run TestGoldenHBBits -update
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/device"
	"repro/internal/hb"
)

const goldenHBBitsPath = "testdata/golden_hb_bits.json"

// hbBitsCase is one pinned HB solve: the digest of its solution bits and
// its Newton and GMRES work.
type hbBitsCase struct {
	XSHA256     string `json:"x_sha256"`
	NewtonIters int    `json:"newton_iters"`
	LinearIters int    `json:"linear_iters"`
	N1          int    `json:"n1"`
	N2          int    `json:"n2"`
}

type hbBitsGolden struct {
	Comment string                `json:"comment"`
	Cases   map[string]hbBitsCase `json:"cases"`
}

// solveHBBits runs the pinned solves once: the three unbalanced-mixer
// drives of the hb package's tests, a single-tone solve, and an adaptive
// solve through analysis.Run that refines its torus grid.
func solveHBBits(t *testing.T) map[string]hbBitsCase {
	t.Helper()
	const f1, fd = 100e6, 1e6
	mixer := func(lo, rf float64) *ckts.UnbalancedMixer {
		return ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: f1, Fd: fd, LOAmp: lo, RFAmp: rf})
	}
	m3, m1, m8 := mixer(0.3, 0.02), mixer(0.1, 0.01), mixer(0.8, 0.01)
	rect, _ := ckts.DiodeRectifier(device.Sine{Amp: 2, F1: 1e6, K1: 1}, 1e3, 1e-9)
	direct := map[string]struct {
		um  *ckts.UnbalancedMixer
		opt hb.Options
	}{
		"unbalanced-lo0.3-32x6": {m3, hb.Options{F1: f1, F2: m3.Shear.F2, N1: 32, N2: 6}},
		"unbalanced-lo0.1-32x4": {m1, hb.Options{F1: f1, F2: m1.Shear.F2, N1: 32, N2: 4}},
		"unbalanced-lo0.8-32x4": {m8, hb.Options{F1: f1, F2: m8.Shear.F2, N1: 32, N2: 4}},
	}
	out := map[string]hbBitsCase{}
	record := func(name string, sol *hb.Solution) {
		out[name] = hbBitsCase{
			XSHA256:     bitsDigest(sol.X),
			NewtonIters: sol.Stats.NewtonIters,
			LinearIters: sol.Stats.LinearIters,
			N1:          sol.N1,
			N2:          sol.N2,
		}
	}
	for name, c := range direct {
		sol, err := hb.Solve(context.Background(), c.um.Ckt, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, sol)
	}
	sol, err := hb.Solve(context.Background(), rect, hb.Options{F1: 1e6, N1: 64})
	if err != nil {
		t.Fatalf("rectifier-single-tone-64: %v", err)
	}
	record("rectifier-single-tone-64", sol)

	ad := mixer(0.1, 0.01)
	res, err := analysis.Run(context.Background(), analysis.Request{Method: "hb", Circuit: ad.Ckt,
		Params: analysis.HBParams{F1: f1, F2: ad.Shear.F2, N1: 16, N2: 4,
			Accuracy: analysis.Accuracy{RelTol: 1e-3}}})
	if err != nil {
		t.Fatalf("unbalanced-adaptive-reltol1e-3: %v", err)
	}
	st := res.Stats()
	asol := res.Raw().(*hb.Solution)
	out["unbalanced-adaptive-reltol1e-3"] = hbBitsCase{
		XSHA256:     bitsDigest(asol.X),
		NewtonIters: st.NewtonIters,
		LinearIters: st.LinearIters,
		N1:          asol.N1,
		N2:          asol.N2,
	}
	return out
}

// TestGoldenHBBits pins the HB solutions bit for bit, on a first solve and
// on a repeat of it in the same process.
func TestGoldenHBBits(t *testing.T) {
	first := solveHBBits(t)
	if *update {
		data, err := json.MarshalIndent(hbBitsGolden{
			Comment: "HB solution digests (SHA-256 of Float64bits, little-endian), Newton/GMRES counts and final grids; regenerate with: go test -run TestGoldenHBBits -update",
			Cases:   first,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHBBitsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenHBBitsPath)
		return
	}
	data, err := os.ReadFile(goldenHBBitsPath)
	if err != nil {
		t.Fatalf("missing HB bits fixture (run `go test -run TestGoldenHBBits -update`): %v", err)
	}
	var want hbBitsGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	second := solveHBBits(t)
	for name, w := range want.Cases {
		for run, got := range []map[string]hbBitsCase{first, second} {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s, solve %d: got %+v, golden %+v", name, run+1, g, w)
			}
		}
	}
	if len(want.Cases) != len(first) {
		t.Errorf("golden has %d cases, test solves %d", len(want.Cases), len(first))
	}
}
