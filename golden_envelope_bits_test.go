// Bit-exact regression fixture for envelope following: the fixed
// unbalanced-mixer march is pinned by the SHA-256 of every line's IEEE-754
// bit patterns together with its step counters, and the LTE-controlled
// balanced-mixer march by its counters. Regenerate after an INTENDED
// numerical change with:
//
//	go test -run TestGoldenEnvelopeBits -update
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/core"
)

const goldenEnvelopeBitsPath = "testdata/golden_envelope_bits.json"

// envelopeBitsCase is one pinned march. LinesSHA256 is empty for a march
// pinned by its counters only.
type envelopeBitsCase struct {
	LinesSHA256   string `json:"lines_sha256,omitempty"`
	NewtonIters   int    `json:"newton_iters"`
	AcceptedSteps int    `json:"accepted_steps"`
	RejectedSteps int    `json:"rejected_steps"`
}

type envelopeBitsGolden struct {
	Comment string                      `json:"comment"`
	Cases   map[string]envelopeBitsCase `json:"cases"`
}

// marchEnvelopeBits runs the two pinned marches.
func marchEnvelopeBits(t *testing.T) map[string]envelopeBitsCase {
	t.Helper()
	out := map[string]envelopeBitsCase{}

	// The fixed march of BenchmarkEnvelopeFollowing.
	unb := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: 1e6})
	fixed, err := core.EnvelopeFollow(context.Background(), unb.Ckt, core.EnvelopeOptions{N1: 40, Shear: unb.Shear})
	if err != nil {
		t.Fatalf("fixed march: %v", err)
	}
	var all []float64
	for _, line := range fixed.Lines {
		all = append(all, line...)
	}
	out["unbalanced-fixed-n1-40"] = envelopeBitsCase{
		LinesSHA256:   bitsDigest(all),
		NewtonIters:   fixed.Stats.NewtonIters,
		AcceptedSteps: fixed.AcceptedSteps,
		RejectedSteps: fixed.RejectedSteps,
	}

	// The LTE-controlled march of BenchmarkAdaptiveEnvelopeLTE.
	bal := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{})
	res, err := analysis.Run(context.Background(), analysis.Request{
		Method:  "envelope",
		Circuit: bal.Ckt,
		Params: analysis.EnvelopeParams{
			Shear: bal.Shear, T2Stop: bal.Shear.Td(),
			Accuracy: analysis.Accuracy{RelTol: 1e-3},
		},
	})
	if err != nil {
		t.Fatalf("LTE march: %v", err)
	}
	st := res.Stats()
	out["balanced-lte-reltol1e-3"] = envelopeBitsCase{
		NewtonIters:   st.NewtonIters,
		AcceptedSteps: st.AcceptedSteps,
		RejectedSteps: st.RejectedSteps,
	}
	return out
}

// TestGoldenEnvelopeBits pins the fixed envelope march bit for bit and the
// LTE march's step and Newton counters.
func TestGoldenEnvelopeBits(t *testing.T) {
	got := marchEnvelopeBits(t)
	if *update {
		data, err := json.MarshalIndent(envelopeBitsGolden{
			Comment: "Envelope-following digests (SHA-256 of every line's Float64bits, little-endian) and step counters; regenerate with: go test -run TestGoldenEnvelopeBits -update",
			Cases:   got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEnvelopeBitsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenEnvelopeBitsPath)
		return
	}
	data, err := os.ReadFile(goldenEnvelopeBitsPath)
	if err != nil {
		t.Fatalf("missing envelope bits fixture (run `go test -run TestGoldenEnvelopeBits -update`): %v", err)
	}
	var want envelopeBitsGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Cases {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: got %+v, golden %+v", name, g, w)
		}
	}
	if len(want.Cases) != len(got) {
		t.Errorf("golden has %d cases, test marches %d", len(want.Cases), len(got))
	}
}
