package circuit_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ckts"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/rf"
)

// TestEvalAtIntoNoAllocs: once the stamps are compiled, evaluating the
// balanced mixer into caller-owned C and G allocates nothing.
func TestEvalAtIntoNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	mix := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{Bits: rf.PRBS7(0x4D, 8)})
	ev := mix.Ckt.NewEval()
	x := make([]float64, mix.Ckt.Size())
	for i := range x {
		x[i] = 0.1 * float64(i%5)
	}
	ctx := device.EvalCtx{Torus: true, Th1: 0.3, Th2: 0.7, Lambda: 1}
	var c, g la.CSR
	ev.EvalAtInto(x, ctx, true, &c, &g) // the first evaluation compiles
	if allocs := testing.AllocsPerRun(100, func() {
		ev.EvalAtInto(x, ctx, true, &c, &g)
		ev.EvalAtInto(x, ctx, false, nil, nil)
	}); allocs != 0 {
		t.Fatalf("steady-state EvalAtInto allocates %v/op, want 0", allocs)
	}
}

// shifty stamps a conductance between a and b whose stamp sequence the
// test changes between evaluations: an extra stamp, a missing one, or the
// same stamps in another order.
type shifty struct {
	a, b int
	mode string
}

func (d *shifty) Name() string { return "X1" }

func (d *shifty) Stamp(s *device.Stamp) {
	v := s.V(d.a) - s.V(d.b)
	s.AddF(d.a, 2*v)
	s.AddF(d.b, -2*v)
	s.AddQ(d.a, 1e-9*v)
	if !s.Jac {
		return
	}
	switch d.mode {
	case "reordered":
		s.AddG(d.b, d.b, 2)
		s.AddG(d.b, d.a, -2)
		s.AddG(d.a, d.b, -2)
		s.AddG(d.a, d.a, 2)
	default:
		s.AddG(d.a, d.a, 2)
		s.AddG(d.a, d.b, -2)
		s.AddG(d.b, d.a, -2)
		if d.mode != "missing" {
			s.AddG(d.b, d.b, 2)
		}
	}
	if d.mode == "extra" {
		s.AddG(d.a, d.a, math.Copysign(0, -1))
		s.AddC(d.b, d.a, 1e-9)
	}
	s.AddC(d.a, d.a, 1e-9)
}

// TestEvalRecompilesChangedStamps: a device whose stamp sequence changes
// between evaluations forces a recompile, every result matches a fresh
// evaluation (the recording pass) bit for bit, and a Jacobian handed out
// before a recompile keeps its pattern.
func TestEvalRecompilesChangedStamps(t *testing.T) {
	ckt := circuit.New("shifty")
	dev := &shifty{a: ckt.Node("a"), b: ckt.Node("b")}
	ckt.Add(dev)
	ckt.R("R1", "b", "0", 1e3)
	ckt.Finalize()
	x := []float64{0.7, -0.2}
	ev := ckt.NewEval()
	var c0, g0 la.CSR
	ev.EvalAtInto(x, device.FullDrive(), true, &c0, &g0)
	rowPtr, colIdx := slices.Clone(g0.RowPtr), slices.Clone(g0.ColIdx)
	for _, mode := range []string{"extra", "missing", "reordered", "", "extra"} {
		dev.mode = mode
		var c, g la.CSR
		res := ev.EvalAtInto(x, device.FullDrive(), true, &c, &g)
		want := ckt.NewEval().EvalAt(x, device.FullDrive(), true)
		for _, m := range []struct {
			name      string
			got, want *la.CSR
		}{{"C", res.C, want.C}, {"G", res.G, want.G}} {
			if !slices.Equal(m.got.RowPtr, m.want.RowPtr) || !slices.Equal(m.got.ColIdx, m.want.ColIdx) {
				t.Fatalf("mode %q: %s pattern differs from a fresh evaluation", mode, m.name)
			}
			for k := range m.want.Val {
				if math.Float64bits(m.got.Val[k]) != math.Float64bits(m.want.Val[k]) {
					t.Fatalf("mode %q: %s value %d is %v, fresh evaluation %v", mode, m.name, k, m.got.Val[k], m.want.Val[k])
				}
			}
		}
	}
	if !slices.Equal(g0.RowPtr, rowPtr) || !slices.Equal(g0.ColIdx, colIdx) {
		t.Fatal("a Jacobian pattern handed out before a recompile changed")
	}
}

// countingWave is a waveform that counts its evaluations.
type countingWave struct{ calls int }

func (w *countingWave) Eval(t float64) float64 { w.calls++; return math.Sin(1e3*t) + 0.25 }

func (w *countingWave) EvalTorus(th1, th2 float64) float64 {
	w.calls++
	return math.Cos(2*math.Pi*th1) * math.Sin(2*math.Pi*th2)
}

// multiSource injects SourceValue(W) into node p once per call count: a
// device whose number of SourceValue calls the test changes.
type multiSource struct {
	p, calls int
	W        device.Waveform
}

func (d *multiSource) Name() string { return "IM" }

func (d *multiSource) Stamp(s *device.Stamp) {
	for range d.calls {
		s.AddB(d.p, s.SourceValue(d.W))
	}
}

// sourceCircuit is a voltage and a current source driven by counting
// waveforms, plus a device with a variable number of source calls.
func sourceCircuit() (*circuit.Circuit, *countingWave, *multiSource) {
	w := &countingWave{}
	ckt := circuit.New("sources")
	ckt.V("V1", "in", "0", device.Sum{device.DC(0.5), w})
	ckt.R("R1", "in", "out", 1e3)
	ckt.I("I1", "out", "0", w)
	m := &multiSource{p: ckt.Node("out"), calls: 1, W: w}
	ckt.Add(m)
	ckt.C("C1", "out", "0", 1e-9)
	ckt.Finalize()
	return ckt, w, m
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: B[%d] = %v, fresh evaluation %v", what, i, got[i], want[i])
		}
	}
}

// TestEvalReplaysSources: a second evaluation at the same context replays
// the recorded source values — no waveform call — and its B is the fresh
// evaluation's bit for bit; any context field that changes, -0 vs +0 time
// included, evaluates the waveforms afresh.
func TestEvalReplaysSources(t *testing.T) {
	ckt, w, _ := sourceCircuit()
	ev := ckt.NewEval()
	x := []float64{0.3, -0.1, 2e-4}
	base := device.EvalCtx{T: 1.5e-3, Lambda: 0.75}
	ev.EvalAt(x, base, true)
	if w.calls == 0 {
		t.Fatal("the first evaluation called no waveform")
	}
	check := func(what string, ctx device.EvalCtx, wantCalls bool) {
		t.Helper()
		x[0] += 0.01 // the iterate does not matter to the sources
		w.calls = 0
		got := slices.Clone(ev.EvalAt(x, ctx, false).B)
		if calls := w.calls; (calls > 0) != wantCalls {
			t.Fatalf("%s: %d waveform calls, want re-evaluation %v", what, calls, wantCalls)
		}
		sameBits(t, what, got, ckt.NewEval().EvalAt(x, ctx, false).B)
	}
	check("same context", base, false)
	for _, c := range []struct {
		name string
		edit func(*device.EvalCtx)
	}{
		{"T", func(c *device.EvalCtx) { c.T = 2e-3 }},
		{"Lambda", func(c *device.EvalCtx) { c.Lambda = 0.5 }},
		{"SignalOnlyLambda", func(c *device.EvalCtx) { c.SignalOnlyLambda = true }},
		{"Torus", func(c *device.EvalCtx) { c.Torus = true }},
		{"Th1", func(c *device.EvalCtx) { c.Th1 = 0.25 }},
		{"Th2", func(c *device.EvalCtx) { c.Th2 = 0.125 }},
	} {
		ctx := base
		c.edit(&ctx)
		check(c.name+" changed", ctx, true)
		check(c.name+" repeated", ctx, false)
		check(c.name+" restored", base, true)
	}
	zero := device.EvalCtx{Lambda: 1}
	negZero := zero
	negZero.T = math.Copysign(0, -1)
	check("T = +0", zero, true)
	check("T = -0 after +0", negZero, true)
	check("T = +0 after -0", zero, true)
}

// TestEvalRerecordsChangedSourceCalls: a device that changes how many
// times it calls SourceValue at an unchanged context is re-recorded, and
// every result matches a fresh evaluation bit for bit. The Jacobian
// pattern, whose stamps did not change, is not recompiled.
func TestEvalRerecordsChangedSourceCalls(t *testing.T) {
	ckt, w, m := sourceCircuit()
	ev := ckt.NewEval()
	x := []float64{0.3, -0.1, 2e-4}
	ctx := device.EvalCtx{T: 1e-3, Lambda: 1}
	var c, g la.CSR
	ev.EvalAtInto(x, ctx, true, &c, &g)
	colIdx := g.ColIdx
	for _, calls := range []int{3, 0, 2, 2} {
		m.calls = calls
		res := ev.EvalAtInto(x, ctx, true, &c, &g)
		sameBits(t, fmt.Sprintf("%d calls", calls), res.B, ckt.NewEval().EvalAt(x, ctx, false).B)
		if &g.ColIdx[0] != &colIdx[0] {
			t.Fatalf("%d calls: a source re-recording recompiled the Jacobian pattern", calls)
		}
	}
	w.calls = 0
	ev.EvalAt(x, ctx, false)
	if w.calls != 0 {
		t.Fatalf("%d waveform calls after the re-recording settled, want 0", w.calls)
	}
}
