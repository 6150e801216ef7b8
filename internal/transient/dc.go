// Package transient implements DC operating-point analysis and adaptive
// time-stepping integration (backward Euler, trapezoidal, BDF2/Gear-2) of the
// MNA equations. It is both the workhorse inside shooting and the
// "traditional time-stepping simulation" baseline that the paper's MPDE
// method is measured against.
package transient

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// DCOptions configures operating-point analysis.
type DCOptions struct {
	Newton solver.Options
	// Time at which source waveforms are evaluated (default 0).
	Time float64
	// SignalsOff computes the true bias point: time-varying sources are
	// zeroed and only DC sources drive the circuit. Without it the sources
	// are evaluated at Time, which is the SPICE transient-initial-condition
	// convention.
	SignalsOff bool
}

// dcGminSteps is the number of geometric steps gmin stepping takes from
// its starting conductance down to the circuit's own Gmin.
const dcGminSteps = 12

// DC computes the operating point: f(x) + b(t) = 0 with dq/dt = 0.
// It tries plain Newton, then source-stepping continuation, then gmin
// stepping. The returned vector has circuit.Size() entries; the returned
// Stats total the work of every Newton solve those tries ran, and after gmin
// stepping its final-iterate fields are the last step's. Cancelling ctx
// aborts the Newton iterations cooperatively; an already-canceled context
// returns ctx.Err() before any assembly work.
func DC(ctx context.Context, ckt *circuit.Circuit, opt DCOptions) ([]float64, solver.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, solver.Stats{}, err
	}
	ckt.Finalize()
	ev := ckt.NewEval()
	n := ckt.Size()
	// Merge Newton defaults non-destructively so set fields (Linear,
	// PivotTol, …) survive. DC benefits from a modest voltage clamp per
	// iteration; a caller-set clamp survives.
	if opt.Newton.MaxStep == 0 {
		opt.Newton.MaxStep = 10
	}
	opt.Newton.Fill()

	evalAt := func(lambda float64, x []float64, jac bool) ([]float64, *la.CSR, error) {
		if opt.SignalsOff {
			// Lambda=0 with SignalOnlyLambda leaves DC sources at full
			// strength and zeros the AC drive; the continuation parameter
			// then ramps the DC-only source vector.
			ctx := device.EvalCtx{T: opt.Time, Lambda: 0, SignalOnlyLambda: true}
			res := ev.EvalAt(x, ctx, jac)
			r := make([]float64, n)
			for i := range r {
				r[i] = res.F[i] + lambda*res.B[i]
			}
			return r, res.G, nil
		}
		ctx := device.EvalCtx{T: opt.Time, Lambda: lambda}
		res := ev.EvalAt(x, ctx, jac)
		r := res.Residual(nil)
		return r, res.G, nil
	}

	x := make([]float64, n)
	ps := solver.FuncParamSystem{N: n, F: evalAt}
	st, _, err := solver.SolveWithFallback(ctx, ps, x, opt.Newton)
	if err == nil {
		return x, st, nil
	}

	// Gmin stepping from zero.
	la.Fill(x, 0)
	ectx := device.EvalCtx{T: opt.Time, Lambda: 1}
	if opt.SignalsOff {
		ectx = device.EvalCtx{T: opt.Time, Lambda: 0, SignalOnlyLambda: true}
	}
	st2, err := gminLadder(ctx, ckt, ectx, x, opt.Newton)
	st.AddFinal(st2)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
}

// gminLadder solves the circuit at ectx from x (in place) by gmin stepping:
// a large artificial conductance from every node to ground, relaxed
// geometrically over dcGminSteps steps down to the circuit's own Gmin. The
// returned Stats total every step's solve and report the last step's
// iterate. Every step solves through one Newton workspace, so the ladder
// factors its Jacobian once and refactors it in that pivot order after.
func gminLadder(ctx context.Context, ckt *circuit.Circuit, ectx device.EvalCtx, x []float64, opt solver.Options) (solver.Stats, error) {
	const gmin0 = 1e-2
	target := ckt.Gmin
	if target <= 0 {
		target = 1e-12
	}
	ratio := math.Pow(target/gmin0, 1/float64(dcGminSteps))
	sys := &gminSystem{ev: ckt.NewEval(), ctx: ectx, nodes: ckt.NumNodes(), g: gmin0, r: make([]float64, ckt.Size())}
	var ws solver.Workspace
	var st solver.Stats
	for k := 0; k <= dcGminSteps; k++ {
		st2, err := ws.SolveTimed(ctx, sys, x, opt)
		st.AddFinal(st2)
		if err != nil {
			return st, fmt.Errorf("transient: DC gmin stepping failed at gmin=%.3e: %w", sys.g, err)
		}
		sys.g *= ratio
	}
	return st, nil
}

// gminSystem is one gmin-stepping step: the circuit's DC system with an
// extra conductance g from every node to ground. It owns its residual and
// its Jacobian: each evaluation writes G into jm afresh, and g is added on
// the node diagonal.
type gminSystem struct {
	ev    *circuit.Eval
	ctx   device.EvalCtx
	nodes int
	g     float64
	c, jm la.CSR
	r     []float64
}

func (s *gminSystem) Size() int { return len(s.r) }

func (s *gminSystem) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	res := s.ev.EvalAtInto(x, s.ctx, jac, &s.c, &s.jm)
	r := res.Residual(s.r)
	for i := 0; i < s.nodes; i++ {
		r[i] += s.g * x[i]
	}
	if !jac {
		return r, nil, nil
	}
	jm := &s.jm
	for i := 0; i < s.nodes; i++ {
		for p := jm.RowPtr[i]; p < jm.RowPtr[i+1]; p++ {
			if jm.ColIdx[p] == i {
				jm.Val[p] += s.g
				break
			}
		}
	}
	return r, jm, nil
}
