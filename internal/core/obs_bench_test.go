package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// BenchmarkQPSSTracingDisabled is the tracing-overhead guard: the same QPSS
// solve as BenchmarkQPSSTracingEnabled, minus the recorder, so a span
// leaking onto the disabled hot path shows up as an allocs/op or ns/op gap
// between the pair.
func BenchmarkQPSSTracingDisabled(b *testing.B) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := QPSS(context.Background(), nonlinearMixer(sh), Options{N1: 24, N2: 16, Shear: sh}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPSSTracingEnabled is the paired measurement with a live
// recorder, bounding what trace:true costs a server job.
func BenchmarkQPSSTracingEnabled(b *testing.B) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
		if _, err := QPSS(ctx, nonlinearMixer(sh), Options{N1: 24, N2: 16, Shear: sh}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracingDisabledProbesZeroAlloc pins the exact probe sequence the core
// hot paths run per solve/round when no recorder is installed: Start (nil
// span), the attr guard, Detach, and Enabled must all stay off the
// allocator. internal/obs gates its own primitives; this covers the
// combination as used here.
func TestTracingDisabledProbesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		sctx, span := obs.Start(ctx, "qpss.solve")
		if span != nil {
			span.SetInt("unknowns", 1)
		}
		dctx := obs.Detach(sctx)
		if obs.Enabled(dctx) {
			t.Fatal("detached context reports tracing enabled")
		}
		span.End()
	}); allocs != 0 {
		t.Fatalf("disabled-path probes allocate %v/op, want 0", allocs)
	}
}
