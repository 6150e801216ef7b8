package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/solver"
)

// exitDeck is the unbalanced mixer at 100 MHz / 1 MHz with N1 = 16 over a
// quarter difference period, warm-started from its converged initial line
// so the march's first solve is already at a solution.
func exitDeck(t *testing.T, relTol float64) (*ckts.UnbalancedMixer, core.EnvelopeOptions) {
	t.Helper()
	mix := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: 1e6})
	opt := core.EnvelopeOptions{N1: 16, Shear: mix.Shear, T2Stop: mix.Shear.Td() / 4, RelTol: relTol}
	first, err := core.EnvelopeFollow(context.Background(), mix.Ckt, core.EnvelopeOptions{
		N1: opt.N1, Shear: opt.Shear, T2Stop: opt.T2Stop / 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt.X0Line = first.Lines[0]
	return mix, opt
}

// TestEnvelopeNewtonFailureUnderflows: with one Newton iteration per solve
// no slow step converges, so both marches halve their first step down to
// the StepT2·1e-6 floor, try once at the floor and then fail with a step
// underflow that wraps the Newton error, having accepted nothing.
func TestEnvelopeNewtonFailureUnderflows(t *testing.T) {
	for _, relTol := range []float64{0, 1e-3} {
		mix, opt := exitDeck(t, relTol)
		opt.Newton.MaxIter = 1
		env, err := core.EnvelopeFollow(context.Background(), mix.Ckt, opt)
		if err == nil || !strings.Contains(err.Error(), "step underflow") || !errors.Is(err, solver.ErrNewton) {
			t.Fatalf("RelTol %g: want a step underflow wrapping solver.ErrNewton, got %v", relTol, err)
		}
		if len(env.T2) != 1 || env.T2[0] != 0 {
			t.Errorf("RelTol %g: T2 = %v, want [0]", relTol, env.T2)
		}
		if env.RejectedSteps != 21 || env.AcceptedSteps != 0 {
			t.Errorf("RelTol %g: rejected %d, accepted %d; want 21 and 0", relTol, env.RejectedSteps, env.AcceptedSteps)
		}
	}
}

// TestEnvelopeCanceledMidMarch: cancelling once the march is under way
// stops it between Newton iterations with an interrupt that wraps
// context.Canceled, and returns the lines accepted so far.
func TestEnvelopeCanceledMidMarch(t *testing.T) {
	for _, relTol := range []float64{0, 1e-3} {
		mix, opt := exitDeck(t, relTol)
		ctx, cancel := context.WithCancel(context.Background())
		iters := 0
		opt.Newton.Progress = func(int, float64) {
			if iters++; iters == 12 {
				cancel()
			}
		}
		env, err := core.EnvelopeFollow(ctx, mix.Ckt, opt)
		cancel()
		if !errors.Is(err, context.Canceled) || !solver.Interrupted(err) {
			t.Fatalf("RelTol %g: want an interrupt wrapping context.Canceled, got %v", relTol, err)
		}
		if env == nil || env.AcceptedSteps == 0 || len(env.Lines) != env.AcceptedSteps+1 || len(env.T2) != len(env.Lines) {
			t.Fatalf("RelTol %g: want the accepted lines back, got %+v", relTol, env)
		}
		if last := env.T2[len(env.T2)-1]; last >= opt.T2Stop {
			t.Errorf("RelTol %g: march reached T2Stop %g despite the cancel", relTol, opt.T2Stop)
		}
	}
}
