// Bit-exact regression fixture for the two time-stepping baselines: the
// shooting and transient jobs the speedup-vs-disparity sweep runs on the
// unbalanced mixer at F1 = 100 MHz and disparity 50, with the sweep's own
// parameters. Every stored float is its IEEE-754 bit pattern in hex, so a
// change to the march's per-step machinery that moves any solution bit or
// any Newton counter fails here. Regenerate after an INTENDED numerical
// change with:
//
//	go test -run TestGoldenBaselines -update
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/shooting"
	"repro/internal/solver"
	"repro/internal/transient"
)

const goldenBaselinesPath = "testdata/golden_baselines.json"

// baselineCounters are the step solves' Newton work of one baseline run.
type baselineCounters struct {
	NewtonIters      int `json:"newton_iters"`
	Factorizations   int `json:"factorizations"`
	Refactorizations int `json:"refactorizations"`
	Halvings         int `json:"halvings"`
}

func countersOf(st solver.Stats) baselineCounters {
	return baselineCounters{st.NewtonIters, st.Factorizations, st.Refactorizations, st.Halvings}
}

type baselinesGolden struct {
	Comment string `json:"comment"`
	// Shooting: the periodic state X0 and the recorded orbit's last state.
	ShootingX0       []string         `json:"shooting_x0"`
	ShootingOrbitEnd []string         `json:"shooting_orbit_end"`
	Shooting         baselineCounters `json:"shooting"`
	// Transient: the final state and the accepted step count.
	TransientFinal []string         `json:"transient_final"`
	TransientSteps int              `json:"transient_steps"`
	Transient      baselineCounters `json:"transient"`
}

func hexBits(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

// runBaseline runs one sweep-parameterised baseline job on a fresh mixer.
func runBaseline(t *testing.T, method string) analysis.Result {
	t.Helper()
	m := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: 100e6 / 50})
	d, err := analysis.Get(method)
	if err != nil {
		t.Fatal(err)
	}
	params, err := d.SweepParams(analysis.BuildInput{Target: analysis.Target{Shear: m.Shear}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(context.Background(), analysis.Request{Method: method, Circuit: m.Ckt, Params: params})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return res
}

func solveBaselinesGolden(t *testing.T) baselinesGolden {
	pss := runBaseline(t, "shooting").Raw().(*shooting.Result)
	tr := runBaseline(t, "transient").Raw().(*transient.Result)
	return baselinesGolden{
		Comment:          "Shooting and transient sweep jobs, unbalanced mixer F1=100MHz d=50; floats are Float64bits hex; regenerate with: go test -run TestGoldenBaselines -update",
		ShootingX0:       hexBits(pss.X0),
		ShootingOrbitEnd: hexBits(pss.Orbit.X[len(pss.Orbit.X)-1]),
		Shooting:         countersOf(pss.Stats),
		TransientFinal:   hexBits(tr.X[len(tr.X)-1]),
		TransientSteps:   tr.Steps,
		Transient:        countersOf(tr.Stats),
	}
}

// TestGoldenBaselines pins the shooting and transient baselines bit for
// bit: solution vectors, step count and Newton counters.
func TestGoldenBaselines(t *testing.T) {
	got := solveBaselinesGolden(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBaselinesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenBaselinesPath)
		return
	}
	data, err := os.ReadFile(goldenBaselinesPath)
	if err != nil {
		t.Fatalf("missing baseline golden fixture (run `go test -run TestGoldenBaselines -update`): %v", err)
	}
	var want baselinesGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"shooting X0", got.ShootingX0, want.ShootingX0},
		{"shooting orbit end", got.ShootingOrbitEnd, want.ShootingOrbitEnd},
		{"shooting counters", got.Shooting, want.Shooting},
		{"transient final state", got.TransientFinal, want.TransientFinal},
		{"transient steps", got.TransientSteps, want.TransientSteps},
		{"transient counters", got.Transient, want.Transient},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: got %v, golden %v", c.name, c.got, c.want)
		}
	}
}
