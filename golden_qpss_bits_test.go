// Bit-exact regression fixture for direct QPSS: three solves whose
// solution vectors are pinned by the SHA-256 of their IEEE-754 bit
// patterns, together with their Newton counters. Each solve runs twice in
// one process, so the second one factors patterns the first has already
// analysed; both must land on the stored bits. Regenerate after an
// INTENDED numerical change with:
//
//	go test -run TestGoldenQPSSBits -update
package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/rf"
)

const goldenQPSSBitsPath = "testdata/golden_qpss_bits.json"

// qpssBitsCase is one pinned solve: the digest of its solution bits and
// its Newton work.
type qpssBitsCase struct {
	XSHA256          string `json:"x_sha256"`
	NewtonIters      int    `json:"newton_iters"`
	Factorizations   int    `json:"factorizations"`
	Refactorizations int    `json:"refactorizations"`
	Halvings         int    `json:"halvings"`
}

type qpssBitsGolden struct {
	Comment string                  `json:"comment"`
	Cases   map[string]qpssBitsCase `json:"cases"`
}

// bitsDigest hashes the Float64bits of x, little-endian, in order.
func bitsDigest(x []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// solveQPSSBits runs the three pinned solves once.
func solveQPSSBits(t *testing.T) map[string]qpssBitsCase {
	t.Helper()
	bal := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{Bits: rf.PRBS7(0x4D, 8)})
	unb := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: 100e6 / 200})
	reqs := map[string]analysis.Request{
		"balanced-40x30": {Method: "qpss", Circuit: bal.Ckt,
			Params: analysis.QPSSParams{N1: 40, N2: 30, Shear: bal.Shear, Linear: "direct"}},
		"balanced-adaptive-reltol1e-3": {Method: "qpss", Circuit: bal.Ckt,
			Params: analysis.QPSSParams{Shear: bal.Shear, Accuracy: analysis.Accuracy{RelTol: 1e-3}}},
		"unbalanced-d200-40x30": {Method: "qpss", Circuit: unb.Ckt,
			Params: analysis.QPSSParams{N1: 40, N2: 30, Shear: unb.Shear, Linear: "direct"}},
	}
	out := map[string]qpssBitsCase{}
	for name, req := range reqs {
		res, err := analysis.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats()
		out[name] = qpssBitsCase{
			XSHA256:          bitsDigest(res.Raw().(*core.Solution).X),
			NewtonIters:      st.NewtonIters,
			Factorizations:   st.Factorizations,
			Refactorizations: st.Refactorizations,
			Halvings:         st.Halvings,
		}
	}
	return out
}

// TestGoldenQPSSBits pins the direct QPSS solutions bit for bit, on a
// first solve and on a repeat of it in the same process.
func TestGoldenQPSSBits(t *testing.T) {
	first := solveQPSSBits(t)
	if *update {
		data, err := json.MarshalIndent(qpssBitsGolden{
			Comment: "Direct QPSS solution digests (SHA-256 of Float64bits, little-endian) and Newton counters; regenerate with: go test -run TestGoldenQPSSBits -update",
			Cases:   first,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenQPSSBitsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenQPSSBitsPath)
		return
	}
	data, err := os.ReadFile(goldenQPSSBitsPath)
	if err != nil {
		t.Fatalf("missing QPSS bits fixture (run `go test -run TestGoldenQPSSBits -update`): %v", err)
	}
	var want qpssBitsGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	second := solveQPSSBits(t)
	for name, w := range want.Cases {
		for run, got := range []map[string]qpssBitsCase{first, second} {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s, solve %d: got %+v, golden %+v", name, run+1, g, w)
			}
		}
	}
	if len(want.Cases) != len(first) {
		t.Errorf("golden has %d cases, test solves %d", len(want.Cases), len(first))
	}
}
