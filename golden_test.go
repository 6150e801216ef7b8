// Golden-spectrum regression fixtures for the paper's artifacts: the
// Fig. 3–5 QPSS solution (balanced mixer, bit-modulated RF, 40×30 grid),
// its Fig. 6 one-time reconstruction, and the pure-tone gain configuration.
// The reference spectra live in testdata/ and are compared mix by mix with
// a tight relative tolerance, so a solver refactor cannot silently shift
// the paper's figures. Regenerate after an INTENDED numerical change with:
//
//	go test -run TestGoldenQPSSSpectra -update
package repro_test

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden testdata fixtures")

const goldenPath = "testdata/golden_qpss_spectra.json"

// goldenRelTol absorbs libm/FMA differences across platforms while staying
// far below any physically meaningful change; goldenAbsTol ignores lines at
// the solver's convergence floor.
const (
	goldenRelTol = 1e-6
	goldenAbsTol = 1e-12
)

type goldenLine struct {
	K1   int     `json:"k1"`
	K2   int     `json:"k2"`
	Freq float64 `json:"freq"`
	Amp  float64 `json:"amp"`
}

type goldenCase struct {
	Description string                  `json:"description"`
	N1          int                     `json:"n1"`
	N2          int                     `json:"n2"`
	Nodes       map[string][]goldenLine `json:"nodes"`
	// Fig6Tail samples the one-time reconstruction x̂(t, t) of the tail
	// node over five LO periods (Fig. 3–5 case only).
	Fig6Tail []float64 `json:"fig6_tail_onetime,omitempty"`
}

type goldenFile struct {
	Comment string                `json:"comment"`
	Cases   map[string]goldenCase `json:"cases"`
}

// solveGoldenCases runs the two fixture configurations on the paper's
// 40×30 grid and returns their spectra.
func solveGoldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	out := map[string]goldenCase{}

	run := func(name, desc string, bits []bool, withFig6 bool) {
		mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
		sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
			N1: 40, N2: 30, Shear: mix.Shear})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gc := goldenCase{Description: desc, N1: sol.N1, N2: sol.N2, Nodes: map[string][]goldenLine{}}
		probe := func(label string, spectrum repro.MPDEGridSpectrum) {
			var lines []goldenLine
			// DC plus the dominant mixes pin the solution: regression in
			// either bias or signal path moves at least one of them.
			lines = append(lines, goldenLine{K1: 0, K2: 0, Freq: 0, Amp: spectrum.MixAmp(0, 0)})
			for _, m := range spectrum.DominantMixes(12) {
				lines = append(lines, goldenLine{
					K1: m.K1, K2: m.K2,
					Freq: spectrum.MixFreq(m.K1, m.K2), Amp: m.Amp,
				})
			}
			gc.Nodes[label] = lines
		}
		probe("outp", sol.Spectrum(mix.OutP))
		probe("outm", sol.Spectrum(mix.OutM))
		probe("tail", sol.Spectrum(mix.Tail))
		probe("diff", sol.SpectrumDiff(mix.OutP, mix.OutM))
		if withFig6 {
			t0 := 2.223e-6
			_, vs := sol.ReconstructOneTime(mix.Tail, t0, t0+5*mix.Shear.T1(), 64)
			gc.Fig6Tail = vs
		}
		out[name] = gc
	}

	run("fig3to5-bitstream",
		"Balanced 450 MHz LO-doubling mixer, PRBS7 bit-modulated RF (paper Eq. 14), 40×30 sheared grid",
		repro.PRBS7(0x4D, 8), true)
	run("puretone-gain",
		"Balanced mixer with pure RF tone at 2·f1 − fd — the down-conversion gain configuration",
		nil, false)
	return out
}

func TestGoldenQPSSSpectra(t *testing.T) {
	got := solveGoldenCases(t)

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		gf := goldenFile{
			Comment: "QPSS spectra of the paper's Fig. 3-6 artifacts; regenerate with: go test -run TestGoldenQPSSSpectra -update",
			Cases:   got,
		}
		data, err := json.MarshalIndent(gf, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test -run TestGoldenQPSSSpectra -update`): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	close := func(got, want float64) bool {
		return math.Abs(got-want) <= goldenAbsTol+goldenRelTol*math.Abs(want)
	}
	for name, wc := range want.Cases {
		gc, ok := got[name]
		if !ok {
			t.Errorf("golden case %q no longer produced", name)
			continue
		}
		if gc.N1 != wc.N1 || gc.N2 != wc.N2 {
			t.Errorf("%s: grid %dx%d, golden %dx%d", name, gc.N1, gc.N2, wc.N1, wc.N2)
			continue
		}
		for node, wantLines := range wc.Nodes {
			gotLines, ok := gc.Nodes[node]
			if !ok {
				t.Errorf("%s: node %q missing", name, node)
				continue
			}
			// Index the freshly computed lines by mix; ordering of
			// near-equal amplitudes may legitimately differ.
			byMix := map[[2]int]goldenLine{}
			for _, l := range gotLines {
				byMix[[2]int{l.K1, l.K2}] = l
			}
			for _, wl := range wantLines {
				gl, ok := byMix[[2]int{wl.K1, wl.K2}]
				if !ok {
					// A mix that fell out of the dominant set: recompute
					// happened with identical settings, so this means the
					// amplitude ranking moved — only fatal if the line
					// really vanished rather than traded places.
					t.Errorf("%s/%s: mix (%d,%d) no longer among dominant lines (golden amp %.6e)",
						name, node, wl.K1, wl.K2, wl.Amp)
					continue
				}
				if !close(gl.Amp, wl.Amp) {
					t.Errorf("%s/%s: mix (%d,%d) amp %.12e, golden %.12e (rel %.3e)",
						name, node, wl.K1, wl.K2, gl.Amp, wl.Amp,
						math.Abs(gl.Amp-wl.Amp)/math.Abs(wl.Amp))
				}
				if !close(gl.Freq, wl.Freq) {
					t.Errorf("%s/%s: mix (%d,%d) freq %.6e, golden %.6e",
						name, node, wl.K1, wl.K2, gl.Freq, wl.Freq)
				}
			}
		}
		for i, wv := range wc.Fig6Tail {
			if i >= len(gc.Fig6Tail) {
				t.Errorf("%s: Fig6 reconstruction shrank to %d samples", name, len(gc.Fig6Tail))
				break
			}
			if !close(gc.Fig6Tail[i], wv) {
				t.Errorf("%s: Fig6 sample %d = %.12e, golden %.12e", name, i, gc.Fig6Tail[i], wv)
			}
		}
	}
}
