// Bit-exact regression fixture for harmonic balance: five solves whose
// solution vectors are pinned by the SHA-256 of their IEEE-754 bit
// patterns, together with their Newton and GMRES counts and what the
// analysis layer reads from them: the Spectrum listing and the Measure
// gain figures of a single-ended and of a differential probe. JSON
// round-trips a float64 exactly, so those figures are pinned bit for bit
// too. Each solve runs twice in one process, so the second one factors
// preconditioner patterns the first has already analysed; both must land
// on the stored bits.
// Regenerate after an INTENDED numerical change with:
//
//	go test -run TestGoldenHBBits -update
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/circuit"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/device"
	"repro/internal/hb"
)

const goldenHBBitsPath = "testdata/golden_hb_bits.json"

// hbBitsCase is one pinned HB solve: the digest of its solution bits, its
// Newton and GMRES work, and the readouts of its two probes.
type hbBitsCase struct {
	XSHA256     string    `json:"x_sha256"`
	NewtonIters int       `json:"newton_iters"`
	LinearIters int       `json:"linear_iters"`
	N1          int       `json:"n1"`
	N2          int       `json:"n2"`
	Single      hbReadout `json:"single"`
	Diff        hbReadout `json:"diff"`
}

// hbReadout is what an HB result reports for one probe: the top-12 lines
// of Spectrum and the conversion gain, HD2 and HD3 of Measure.
type hbReadout struct {
	Lines []analysis.Line `json:"lines"`
	Gain  float64         `json:"gain"`
	HD2   float64         `json:"hd2"`
	HD3   float64         `json:"hd3"`
}

type hbBitsGolden struct {
	Comment string                `json:"comment"`
	Cases   map[string]hbBitsCase `json:"cases"`
}

// solveHBBits runs the pinned solves once through analysis.Run: the three
// unbalanced-mixer drives of the hb package's tests, a single-tone solve,
// and an adaptive solve that refines its torus grid.
func solveHBBits(t *testing.T) map[string]hbBitsCase {
	t.Helper()
	const f1, fd = 100e6, 1e6
	type hbCase struct {
		ckt    *circuit.Circuit
		params analysis.HBParams
		out    analysis.Probe // single-ended; diff adds the minus leg
		minus  int
		rfAmp  float64
	}
	mixer := func(lo, rf float64, n1, n2 int, acc analysis.Accuracy) hbCase {
		um := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: f1, Fd: fd, LOAmp: lo, RFAmp: rf})
		return hbCase{um.Ckt, analysis.HBParams{F1: f1, F2: um.Shear.F2, N1: n1, N2: n2, Accuracy: acc},
			analysis.SingleEnded(um.Drain), um.Src, rf}
	}
	rect, rectOut := ckts.DiodeRectifier(device.Sine{Amp: 2, F1: 1e6, K1: 1}, 1e3, 1e-9)
	in, _ := rect.NodeIndex("in")
	cases := map[string]hbCase{
		"unbalanced-lo0.3-32x6":          mixer(0.3, 0.02, 32, 6, analysis.Accuracy{}),
		"unbalanced-lo0.1-32x4":          mixer(0.1, 0.01, 32, 4, analysis.Accuracy{}),
		"unbalanced-lo0.8-32x4":          mixer(0.8, 0.01, 32, 4, analysis.Accuracy{}),
		"rectifier-single-tone-64":       {rect, analysis.HBParams{F1: 1e6, N1: 64}, analysis.SingleEnded(rectOut), in, 2},
		"unbalanced-adaptive-reltol1e-3": mixer(0.1, 0.01, 16, 4, analysis.Accuracy{RelTol: 1e-3}),
	}
	readout := func(res analysis.Result, p analysis.Probe, rfAmp float64) hbReadout {
		lines, _ := res.Spectrum(p, 12)
		g := res.Measure(p, rfAmp).Gain
		return hbReadout{Lines: lines, Gain: g.Ratio, HD2: g.HD2, HD3: g.HD3}
	}
	out := map[string]hbBitsCase{}
	for name, c := range cases {
		res, err := analysis.Run(context.Background(), analysis.Request{Method: "hb", Circuit: c.ckt, Params: c.params})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats()
		sol := res.Raw().(*hb.Solution)
		diff := c.out
		diff.M = c.minus
		out[name] = hbBitsCase{
			XSHA256:     bitsDigest(sol.X),
			NewtonIters: st.NewtonIters,
			LinearIters: st.LinearIters,
			N1:          sol.N1,
			N2:          sol.N2,
			Single:      readout(res, c.out, c.rfAmp),
			Diff:        readout(res, diff, c.rfAmp),
		}
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
			if g, ok := got[name]; !ok || !reflect.DeepEqual(g, w) {
				t.Errorf("%s, solve %d: got %+v, golden %+v", name, run+1, g, w)
			}
		}
	}
	if len(want.Cases) != len(first) {
		t.Errorf("golden has %d cases, test solves %d", len(want.Cases), len(first))
	}
}
