package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/pac"
	"repro/internal/shooting"
	"repro/internal/transient"
)

// diodeRC is a diode-loaded RC pumped by V1 at F1. Its second port VS
// carries the RF tone at F2 when twoTone is set and stays at 0 V otherwise,
// so the periodic analyses (shooting, pac) see a single-tone circuit.
func diodeRC(sh repro.Shear, twoTone bool) *repro.Circuit {
	ckt := repro.NewCircuit("diode-rc")
	ckt.V("V1", "in", "0", repro.Sum{
		repro.DC(0.3),
		repro.Sine{Amp: 0.3, F1: sh.F1, F2: sh.F2, K1: 1},
	})
	var rf repro.Waveform = repro.DC(0)
	if twoTone {
		rf = repro.Sine{Amp: 0.05, F1: sh.F1, F2: sh.F2, K2: 1}
	}
	ckt.V("VS", "s", "0", rf)
	ckt.R("R1", "in", "a", 500)
	ckt.R("R2", "s", "a", 1000)
	ckt.D("D1", "a", "0", 1e-12)
	ckt.C("C1", "a", "0", 1e-10)
	return ckt
}

// solutionOf picks the solved state out of an analysis's Raw() value.
func solutionOf(raw any) any {
	switch r := raw.(type) {
	case *repro.MPDESolution:
		return r.X
	case *repro.MPDEEnvelopeResult:
		return []any{r.T2, r.Lines}
	case []float64:
		return r
	case *repro.TransientResult:
		return []any{r.T, r.X}
	case *repro.ShootingResult:
		return []any{r.X0, r.Orbit.X}
	case *repro.HBSolution:
		return r.X
	case *repro.ACResult:
		return r.X
	case *repro.PACResult:
		return r.X
	}
	return nil
}

// TestAnalyzeMatchesDirectCall runs every row of the README migration
// table both ways — through Analyze and through the internal function with
// the options the registry derives from the typed parameters — and
// requires bit-identical solutions. The public demos rely on this
// equivalence.
func TestAnalyzeMatchesDirectCall(t *testing.T) {
	ctx := context.Background()
	sh := repro.NewShear(1e6, 0.99e6, 1)
	rows := []struct {
		method  string
		twoTone bool
		params  any
		direct  func(*repro.Circuit) (any, error)
	}{
		{"qpss", true, repro.QPSSParams{N1: 16, N2: 8, Shear: sh},
			func(ckt *repro.Circuit) (any, error) {
				return core.QPSS(ctx, ckt, core.Options{N1: 16, N2: 8, Shear: sh})
			}},
		{"envelope", true, repro.EnvelopeParams{N1: 16, Shear: sh, T2Stop: sh.Td() / 4, StepT2: sh.Td() / 40},
			func(ckt *repro.Circuit) (any, error) {
				return core.EnvelopeFollow(ctx, ckt, core.EnvelopeOptions{N1: 16, Shear: sh, T2Stop: sh.Td() / 4, StepT2: sh.Td() / 40})
			}},
		{"dc", true, repro.DCParams{},
			func(ckt *repro.Circuit) (any, error) {
				x, _, err := transient.DC(ctx, ckt, transient.DCOptions{})
				return x, err
			}},
		{"transient", true, repro.TransientParams{Method: repro.TRAP, TStop: 5 / sh.F1, Step: 0.02 / sh.F1},
			func(ckt *repro.Circuit) (any, error) {
				return transient.Run(ctx, ckt, transient.Options{Method: repro.TRAP, TStop: 5 / sh.F1, Step: 0.02 / sh.F1})
			}},
		{"shooting", false, repro.ShootingParams{Period: 1 / sh.F1, Steps: 128},
			func(ckt *repro.Circuit) (any, error) {
				return shooting.PSS(ctx, ckt, shooting.Options{Period: 1 / sh.F1, Steps: 128})
			}},
		{"hb", true, repro.HBParams{F1: sh.F1, F2: sh.F2, N1: 16, N2: 8},
			func(ckt *repro.Circuit) (any, error) {
				return hb.Solve(ctx, ckt, hb.Options{F1: sh.F1, F2: sh.F2, N1: 16, N2: 8})
			}},
		{"ac", true, repro.ACParams{Source: "VS", Freqs: []float64{1e5, 1e6}},
			func(ckt *repro.Circuit) (any, error) {
				return ac.Analyze(ctx, ckt, ac.Options{Source: "VS", Freqs: []float64{1e5, 1e6}})
			}},
		{"pac", false, repro.PACParams{Period: 1 / sh.F1, Steps: 64, Source: "VS", Freqs: []float64{0.99e6}},
			func(ckt *repro.Circuit) (any, error) {
				return pac.Analyze(ctx, ckt, pac.Options{Period: 1 / sh.F1, Steps: 64, Source: "VS", Freqs: []float64{0.99e6}})
			}},
	}
	for _, row := range rows {
		t.Run(row.method, func(t *testing.T) {
			res, err := repro.Analyze(ctx, repro.AnalysisRequest{
				Method: row.method, Circuit: diodeRC(sh, row.twoTone), Params: row.params,
			})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			want, err := row.direct(diodeRC(sh, row.twoTone))
			if err != nil {
				t.Fatalf("direct call: %v", err)
			}
			if got, w := fmt.Sprintf("%T", res.Raw()), fmt.Sprintf("%T", want); got != w {
				t.Fatalf("Raw() is %s, the direct call returns %s", got, w)
			}
			if solutionOf(want) == nil {
				t.Fatalf("no solution extractor for %T", want)
			}
			// %b prints each float's exact mantissa and exponent, so equal
			// strings mean bit-identical solutions.
			if fmt.Sprintf("%b", solutionOf(res.Raw())) != fmt.Sprintf("%b", solutionOf(want)) {
				t.Fatal("Analyze(...).Raw() differs from the direct call")
			}
		})
	}
}
