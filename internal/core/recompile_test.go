package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
)

// switchingLoad is a conductance from node P to ground whose G stamp
// sequence gains one zero-valued entry, (P, Q), once v(P) exceeds Vth: a
// device whose Jacobian pattern changes mid-solve, so the compiled device
// stamps and the Jacobian block stencils built on them must recompile.
type switchingLoad struct {
	P, Q   int
	G, Vth float64
}

func (d *switchingLoad) Name() string { return "XSW" }

func (d *switchingLoad) Stamp(s *device.Stamp) {
	v := s.V(d.P)
	s.AddF(d.P, d.G*v)
	if s.Jac {
		s.AddG(d.P, d.P, d.G)
		if v > d.Vth {
			s.AddG(d.P, d.Q, 0)
		}
	}
}

// switchingMixer is nonlinearMixer with a switching load on the LO node,
// which sits at 0.9 V at the DC starting point and swings to 1.4 V on the
// torus: the first Jacobian has the load's one-entry pattern at every grid
// point, and later ones have the extra entry wherever v(lo) > 1.1 V. The
// lo–rf coupling the entry adds exists nowhere else in the circuit.
func switchingMixer(sh Shear) *circuit.Circuit {
	ckt := nonlinearMixer(sh)
	ckt.Add(&switchingLoad{P: ckt.Node("lo"), Q: ckt.Node("rf"), G: 1e-4, Vth: 1.1})
	return ckt
}

// TestJacobianRecompiles drives the Jacobian-recompile path of the grid,
// matrix-free and envelope assemblers with a device whose stamp pattern
// changes during the solve: every run must converge to a small residual,
// the direct and envelope runs must recompile, and a Jacobian pattern
// handed out before a recompile must keep its contents. The direct run
// starts from the DC grid, where v(lo) sits below the threshold: from the
// march start the load's pattern no longer changes during the grid solve.
func TestJacobianRecompiles(t *testing.T) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	const n1, n2 = 24, 16

	for _, linear := range []solver.LinearSolverKind{solver.DirectSparse, solver.MatrixFree} {
		ckt := switchingMixer(sh)
		opt := Options{N1: n1, N2: n2, Shear: sh}
		opt.Newton.Linear = linear
		if linear == solver.DirectSparse {
			opt.X0 = dcStart(t, ckt, n1*n2)
		}
		sol, err := QPSS(context.Background(), ckt, opt)
		if err != nil {
			t.Fatalf("%v: %v", linear, err)
		}
		r, _, _ := newAssembler(ckt, opt).assemble(sol.X, 1, false)
		if res := la.NormInf(r); res > 1e-6 {
			t.Fatalf("%v: residual %.3e at the solution", linear, res)
		}
		if linear == solver.DirectSparse && sol.Stats.PatternBuilds < 2 {
			t.Fatalf("direct: PatternBuilds = %d, want ≥ 2 (the load's pattern never changed)", sol.Stats.PatternBuilds)
		}

		if linear != solver.DirectSparse {
			continue
		}
		// A pattern handed out before a recompile keeps its contents.
		a := newAssembler(ckt, opt)
		lo, err := ckt.NodeIndex("lo")
		if err != nil {
			t.Fatal(err)
		}
		x0 := slices.Clone(sol.X) // v(lo) below the threshold everywhere
		for p := 0; p < n1*n2; p++ {
			x0[p*a.n+lo] = 0.9
		}
		_, j1, _ := a.assemble(x0, 1, true)
		first := *j1
		rowPtr, colIdx := slices.Clone(first.RowPtr), slices.Clone(first.ColIdx)
		_, j2, _ := a.assemble(sol.X, 1, true)
		if a.builds != 2 || j2.NNZ() <= len(colIdx) {
			t.Fatalf("builds = %d, nnz %d → %d: the extra entries did not recompile the Jacobian", a.builds, len(colIdx), j2.NNZ())
		}
		if !slices.Equal(first.RowPtr, rowPtr) || !slices.Equal(first.ColIdx, colIdx) {
			t.Fatal("a Jacobian pattern handed out before the recompile changed")
		}
	}

	ckt := switchingMixer(sh)
	env, err := EnvelopeFollow(context.Background(), ckt, EnvelopeOptions{N1: n1, Shear: sh, T2Stop: sh.Td() / 6})
	if err != nil {
		t.Fatal(err)
	}
	if env.PatternBuilds < 2 {
		t.Fatalf("envelope: PatternBuilds = %d, want ≥ 2", env.PatternBuilds)
	}
	// The last step's residual, rebuilt from the line before it.
	last := len(env.Lines) - 1
	la1 := newLineAssembler(ckt, sh, ckt.Size(), n1, sh.T1()/n1)
	la1.t2 = env.T2[last-1]
	la1.Eval(env.Lines[last-1], false)
	la1.qPrev = slices.Clone(la1.q)
	la1.t2, la1.h2 = env.T2[last], env.T2[last]-env.T2[last-1]
	r, _, _ := la1.Eval(env.Lines[last], false)
	if res := la.NormInf(r); res > 1e-6 {
		t.Fatalf("envelope: residual %.3e on the last line", res)
	}
}
