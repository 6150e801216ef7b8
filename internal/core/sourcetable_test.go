package core

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// countedWave counts its torus evaluations; the assembler's workers share
// it, so the count is atomic.
type countedWave struct {
	device.Sine
	calls *atomic.Int64
}

func (w countedWave) EvalTorus(th1, th2 float64) float64 {
	w.calls.Add(1)
	return w.Sine.EvalTorus(th1, th2)
}

// countedMixer is nonlinearMixer with its RF drive counted: one torus
// evaluation per grid point per recording.
func countedMixer(sh Shear) (*circuit.Circuit, *atomic.Int64) {
	calls := new(atomic.Int64)
	ckt := circuit.New("counted-mixer")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VLO", "lo", "0", device.Sum{
		device.DC(0.9),
		device.Sine{Amp: 0.5, F1: sh.F1, F2: sh.F2, K1: 1},
	})
	ckt.V("VRF", "rf", "0", countedWave{device.Sine{Amp: 0.05, F1: sh.F1, F2: sh.F2, K2: 1}, calls})
	ckt.R("RB", "rf", "g", 100)
	ckt.M("M1", "d", "g", "0", device.MOSFET{KP: 2e-3})
	ckt.M("M2", "d2", "lo", "d", device.MOSFET{KP: 2e-3})
	ckt.R("RL", "vdd", "d2", 2000)
	ckt.C("CL", "d2", "0", 2e-10)
	return ckt, calls
}

// TestQPSSTabulatesSources: a direct QPSS solve evaluates each grid
// point's waveforms once — every later Jacobian evaluation and damping
// trial replays them — a new context (a continuation λ) re-records each
// point once more, and the envelope line re-records once per slow time,
// in EnvelopeFollow and in the march that starts QPSS.
func TestQPSSTabulatesSources(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	const n1, n2 = 16, 12
	ckt, calls := countedMixer(sh)
	// The grid check starts from the DC grid, so only the grid records.
	opt := Options{N1: n1, N2: n2, Shear: sh}
	opt.X0 = dcStart(t, ckt, n1*n2)
	calls.Store(0)
	sol, err := QPSS(context.Background(), ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.UsedContinuation {
		t.Fatal("the solve needed continuation; the count below assumes one context")
	}
	evals := sol.Stats.JacobianEvals + sol.Stats.NewtonIters + sol.Stats.Halvings
	if got := calls.Load(); got != n1*n2 {
		t.Fatalf("%d source evaluations over %d grid evaluations, want %d (one per point)", got, evals, n1*n2)
	}

	a := newAssembler(ckt, opt)
	calls.Store(0)
	for _, lambda := range []float64{0.5, 0.5, 1, 1} {
		for _, jac := range []bool{true, false} {
			a.assembleSignalLambda(sol.X, lambda, jac)
		}
	}
	if got := calls.Load(); got != 2*n1*n2 {
		t.Fatalf("%d source evaluations at two contexts, want %d", got, 2*n1*n2)
	}

	// The envelope line re-records once per slow time: the initial line,
	// and every attempted step, whose accepted line replays.
	calls.Store(0)
	env, err := EnvelopeFollow(context.Background(), ckt, EnvelopeOptions{N1: n1, Shear: sh, T2Stop: sh.Td() / 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n1 * (1 + env.AcceptedSteps + env.RejectedSteps)); calls.Load() != want {
		t.Fatalf("envelope: %d source evaluations over %d steps, want %d", calls.Load(), env.AcceptedSteps, want)
	}

	// From the march start: N1 points per slow step, the initial line's
	// included, then the grid's N1·N2.
	calls.Store(0)
	if _, err := QPSS(context.Background(), ckt, Options{N1: n1, N2: n2, Shear: sh}); err != nil {
		t.Fatal(err)
	}
	if want := int64(n1*(n2+1) + n1*n2); calls.Load() != want {
		t.Fatalf("march start: %d source evaluations, want %d (%d march lines of %d, then the grid)", calls.Load(), want, n2+1, n1)
	}
}

// opSource injects W into node P once, or three times when v(P) exceeds
// Vth: a device whose SourceValue call count depends on the iterate.
type opSource struct {
	P   int
	Vth float64
	W   device.Waveform
}

func (d *opSource) Name() string { return "XOP" }

func (d *opSource) Stamp(s *device.Stamp) {
	calls := 1
	if s.V(d.P) > d.Vth {
		calls = 3
	}
	for range calls {
		s.AddB(d.P, 1e-6*s.SourceValue(d.W))
	}
}

// TestGridRerecordsOperatingPointSources: with a device whose source call
// count follows the iterate, from point to point and from one evaluation
// to the next, every tabulated grid residual equals an evaluation that
// records afresh, bit for bit.
func TestGridRerecordsOperatingPointSources(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	d2 := ckt.Node("d2")
	ckt.Add(&opSource{P: d2, Vth: 1.5, W: device.Sine{Amp: 1, F1: sh.F1, F2: sh.F2, K1: 1, K2: 1}})
	ckt.Finalize()
	n := ckt.Size()
	// Three workers race to record the table's first points.
	opt := Options{N1: 12, N2: 8, Shear: sh, AssemblyWorkers: 3}
	np := opt.N1 * opt.N2
	// Three states: v(d2) below the threshold everywhere, above it
	// everywhere but point 0 (whose recording sizes the table short), and
	// alternating between points.
	states := make([][]float64, 3)
	for s := range states {
		x := make([]float64, np*n)
		for p := 0; p < np; p++ {
			v := 1.0
			if s == 1 && p > 0 || s == 2 && p%2 == 1 {
				v = 2
			}
			x[p*n+d2] = v
		}
		states[s] = x
	}
	a := newAssembler(ckt, opt)
	for _, s := range []int{0, 1, 2, 1, 0, 2, 2} {
		for _, jac := range []bool{false, true} {
			got, _, _ := a.assemble(states[s], 1, jac)
			want, _, _ := newAssembler(ckt, opt).assemble(states[s], 1, false)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("state %d jac %v: r[%d] = %v, fresh %v", s, jac, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGridResidualAllocsZero: once every point is recorded, a residual-only
// grid assembly replays the sources from the table's slab and allocates
// nothing.
func TestGridResidualAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	ckt.Finalize()
	opt := Options{N1: 16, N2: 12, Shear: sh, AssemblyWorkers: 1}
	a := newAssembler(ckt, opt)
	x := make([]float64, opt.N1*opt.N2*ckt.Size())
	for i := range x {
		x[i] = 0.1
	}
	a.assemble(x, 1, false) // records every point
	if allocs := testing.AllocsPerRun(20, func() { a.assemble(x, 1, false) }); allocs != 0 {
		t.Fatalf("a warm residual-only grid assembly allocates %v/op, want 0", allocs)
	}
}

// TestEnvelopeLineEvalAllocsZero: a warm envelope step evaluation
// allocates nothing, residual-only or with the line Jacobian.
func TestEnvelopeLineEvalAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	ckt.Finalize()
	const n1 = 16
	n := ckt.Size()
	a := newLineAssembler(ckt, sh, n, n1, sh.T1()/n1)
	x := make([]float64, n1*n)
	for i := range x {
		x[i] = 0.1
	}
	a.t2, a.h2, a.qPrev = sh.Td()/30, sh.Td()/30, make([]float64, n1*n)
	for _, jac := range []bool{false, true} {
		a.Eval(x, jac)
		if allocs := testing.AllocsPerRun(20, func() { a.Eval(x, jac) }); allocs != 0 {
			t.Errorf("a warm line evaluation (jac %v) allocates %v/op, want 0", jac, allocs)
		}
	}
}

// TestStampCompilesBounded: on the switching mixer, whose grid points
// alternate between two G stamp sequences, each worker's stamp maps
// compile each distinct sequence once — C one, G two — however often the
// points alternate, and the Jacobian block stencil sees those sequences'
// patterns again by identity.
func TestStampCompilesBounded(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	const n1, n2, workers = 24, 16, 2
	ckt := switchingMixer(sh)
	opt := Options{N1: n1, N2: n2, Shear: sh, AssemblyWorkers: workers}
	opt.Newton.Linear = solver.DirectSparse
	opt.Newton.MaxIter = 5
	sol, err := QPSS(context.Background(), ckt, Options{N1: n1, N2: n2, Shear: sh})
	if err != nil {
		t.Fatal(err)
	}
	a := newAssembler(ckt, opt)
	// Five direct Newton iterations from v(lo) = 0.9 V, below the
	// threshold everywhere, move the points across it.
	lo, _ := ckt.NodeIndex("lo")
	n := ckt.Size()
	x0 := slices.Clone(sol.X)
	for p := 0; p < n1*n2; p++ {
		x0[p*n+lo] = 0.9
	}
	sys := solver.FuncSystem{N: len(x0), F: func(xx []float64, jac bool) ([]float64, *la.CSR, error) {
		return a.assemble(xx, 1, jac)
	}}
	solver.Solve(context.Background(), sys, slices.Clone(x0), opt.Newton)
	// Then alternate between the two states.
	for range 3 {
		a.assemble(sol.X, 1, true)
		a.assemble(x0, 1, true)
	}
	compiles := 0
	for _, ev := range a.evs {
		compiles += ev.Compiles()
	}
	t.Logf("%d stamp-map compiles", compiles)
	if bound := 3 * workers; compiles > bound {
		t.Fatalf("%d stamp-map compiles, want at most %d (3 distinct sequences × %d workers)", compiles, bound, workers)
	}
	builds := a.builds
	a.assemble(sol.X, 1, true)
	a.assemble(sol.X, 1, true)
	if a.builds > builds+1 {
		t.Fatalf("the block stencil compiled %d times for one state, want at most once", a.builds-builds)
	}
}
