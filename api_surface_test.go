// API-compatibility gate: the context-first surface must keep its exact
// signatures so every published example and golden test keeps compiling.
// A signature change here is a breaking change — these assignments fail to
// compile before any test runs.
package repro_test

import (
	"context"
	"sort"
	"testing"

	"repro"
)

// Compile-time pins of the entry-point signatures.
var (
	_ func(context.Context, repro.SweepSpec) (*repro.SweepResult, error)                                               = repro.Sweep
	_ func(context.Context, string, repro.ServerOptions) error                                                         = repro.Serve
	_ func(float64, float64, int) repro.Shear                                                                          = repro.NewShear
	_ func(context.Context, repro.AnalysisRequest) (repro.AnalysisResult, error)                                       = repro.Analyze
	_ func() []string                                                                                                  = repro.AnalysisNames
	_ func(context.Context, *repro.Circuit, repro.MPDEOptions, repro.MPDEAccuracyOptions) (*repro.MPDESolution, error) = repro.MPDEQuasiPeriodicAdaptive
)

// Compile-time pins of the typed parameter structs backing the new surface.
var (
	_ repro.QPSSParams
	_ repro.EnvelopeParams
	_ repro.ShootingParams
	_ repro.TransientParams
	_ repro.HBParams
	_ repro.ACParams
	_ repro.PACParams
	_ repro.DCParams
	_ repro.AnalysisAccuracy
)

// TestAnalysisNamesCoverEveryDispatcherMethod asserts the registry carries
// at least the analyses the dispatchers were rebuilt around.
func TestAnalysisNamesCoverEveryDispatcherMethod(t *testing.T) {
	names := repro.AnalysisNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("AnalysisNames not sorted: %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"qpss", "envelope", "shooting", "transient", "hb", "dc", "ac", "pac"} {
		if !have[want] {
			t.Fatalf("registry is missing %q (have %v)", want, names)
		}
	}
}
