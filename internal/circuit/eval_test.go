package circuit_test

import (
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
