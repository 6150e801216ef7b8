package sweep_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/ckts"
	"repro/internal/sweep"
)

// TestSweepSharedCircuitState runs a multi-method grid where the builder
// deliberately hands every job the SAME circuit instance. After the
// engine's serialised finalisation the circuit and its devices are
// read-only and each analysis allocates a private Eval workspace, so this
// must be race-free — `go test -race ./internal/sweep/` is the check.
func TestSweepSharedCircuitState(t *testing.T) {
	mix := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{F1: 10e6, Fd: 100e3})
	shared := &sweep.Target{
		Ckt: mix.Ckt, Shear: mix.Shear,
		OutP: mix.OutP, OutM: mix.OutM, RFAmp: mix.Cfg.RFAmp,
	}
	spec := sweep.Spec{
		Name:    "shared-circuit",
		Methods: []sweep.Method{sweep.QPSS, sweep.Envelope, sweep.Shooting},
		Grid: sweep.Grid{
			N1: []int{12, 16},
			N2: []int{8},
		},
		Build:   func(sweep.Point) (*sweep.Target, error) { return shared, nil },
		Workers: 4,
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ok, failed, canceled := res.Counts()
	if failed != 0 || canceled != 0 {
		t.Fatalf("shared-circuit sweep: ok=%d failed=%d canceled=%d errs=%v",
			ok, failed, canceled, res.Errors())
	}
	// All jobs probed the same physical mixer: every QPSS job must agree
	// on the sign and rough size of the baseband swing.
	for i := range res.Jobs {
		if res.Jobs[i].Job.Method == sweep.QPSS && res.Jobs[i].Swing <= 0 {
			t.Fatalf("job %d: no baseband swing on shared circuit", i)
		}
	}
}

// TestSweepCancelReturnsPromptly proves a mid-sweep context cancel unwinds
// quickly — through the Newton-level Interrupt hook, not just between jobs —
// and that the partial aggregate is still well-formed and ordered.
func TestSweepCancelReturnsPromptly(t *testing.T) {
	spec := sweep.Spec{
		Name:    "cancel",
		Methods: []sweep.Method{sweep.QPSS},
		Grid: sweep.Grid{
			Fd: []float64{60e3, 70e3, 80e3, 90e3, 100e3, 110e3, 120e3, 130e3},
			N1: []int{24},
			N2: []int{16},
		},
		Build:   balancedTarget,
		Workers: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel when the first job finishes, so the cancel lands mid-sweep
	// however fast the machine solves: the other worker is then mid-solve
	// and six jobs are still queued.
	spec.Progress = func(ev sweep.ProgressEvent) {
		if ev.Kind == sweep.ProgressJobDone {
			cancel()
		}
	}
	t0 := time.Now()
	res, err := sweep.Run(ctx, spec)
	elapsed := time.Since(t0)
	if err != context.Canceled {
		t.Fatalf("Run must surface ctx.Err(), got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled Run must still return the partial result")
	}
	// With in-solve interruption the whole sweep must unwind well before
	// the time it would need to drain serially.
	if elapsed > 1200*time.Millisecond {
		t.Fatalf("cancel took %v to unwind — in-solve interrupt not working", elapsed)
	}
	if len(res.Jobs) != 8 {
		t.Fatalf("partial result must keep all job slots, got %d", len(res.Jobs))
	}
	_, _, canceled := res.Counts()
	if canceled == 0 {
		t.Fatal("expected at least one canceled job")
	}
	for i := range res.Jobs {
		if res.Jobs[i].Job.ID != i {
			t.Fatalf("partial results out of order at %d: %+v", i, res.Jobs[i].Job)
		}
		switch res.Jobs[i].Status {
		case sweep.StatusOK, sweep.StatusCanceled:
		default:
			t.Fatalf("job %d: unexpected status %s (%s)", i, res.Jobs[i].Status, res.Jobs[i].Err)
		}
	}
	t.Logf("cancel unwound in %v with %d/8 jobs canceled", elapsed, canceled)
}

// TestSweepJobTimeout gives each job a deadline far below its runtime and
// expects per-job timeouts without failing the sweep as a whole. The 64×48
// grid solves in about 0.1 s on a 2-vCPU host, ten times the deadline.
func TestSweepJobTimeout(t *testing.T) {
	spec := sweep.Spec{
		Name:       "timeout",
		Methods:    []sweep.Method{sweep.QPSS},
		Grid:       sweep.Grid{Fd: []float64{100e3}, N1: []int{64}, N2: []int{48}},
		Build:      balancedTarget,
		Workers:    1,
		JobTimeout: 10 * time.Millisecond,
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("job timeouts must not fail the sweep: %v", err)
	}
	if res.Jobs[0].Status != sweep.StatusTimeout {
		t.Fatalf("want status timeout, got %s (%s)", res.Jobs[0].Status, res.Jobs[0].Err)
	}
}
