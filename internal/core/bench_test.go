package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/solver"
)

// benchAssembler builds the regression mixer's grid assembler plus a solved
// operating-point-ish state vector to assemble at.
func benchAssembler(b *testing.B, workers int) (*assembler, []float64) {
	b.Helper()
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	ckt := nonlinearMixer(sh)
	opt := Options{N1: 40, N2: 30, Shear: sh, AssemblyWorkers: workers}
	ckt.Finalize()
	a := newAssembler(ckt, opt)
	x := make([]float64, opt.N1*opt.N2*ckt.Size())
	for i := range x {
		x[i] = 0.1
	}
	return a, x
}

// BenchmarkQPSSAssembleJacobian measures one full residual+Jacobian grid
// assembly — the Newton hot path. After the first call the sparsity pattern
// is reused and values are stamped in place, so steady state should run
// allocation-free.
func BenchmarkQPSSAssembleJacobian(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "seq"
		if w != 1 {
			name = "par"
		}
		b.Run(name, func(b *testing.B) {
			a, x := benchAssembler(b, w)
			if _, _, err := a.assemble(x, 1, true); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.assemble(x, 1, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.lastNNZ), "nnz")
		})
	}
}

// BenchmarkQPSSAssembleResidual is the Jacobian-free variant used by the
// damping line search.
func BenchmarkQPSSAssembleResidual(b *testing.B) {
	a, x := benchAssembler(b, runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.assemble(x, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPSSSolve is the end-to-end Newton solve on the paper's grid
// shape, exercising pattern reuse, refactorisation, and parallel assembly
// together.
func BenchmarkQPSSSolve(b *testing.B) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := QPSS(context.Background(), nonlinearMixer(sh), Options{N1: 40, N2: 30, Shear: sh})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sol.Stats.NewtonIters), "newton-iters")
		b.ReportMetric(float64(sol.Stats.Refactorizations), "refactorizations")
	}
}

// BenchmarkQPSSLinearSolver compares the direct-LU and matrix-free Newton
// linear paths on the regression mixer across grid sizes. Direct wins on
// small grids (cheap fill, no Krylov overhead); matrix-free scales better as
// the grid — and the LU fill with it — grows.
func BenchmarkQPSSLinearSolver(b *testing.B) {
	sh := Shear{F1: 1e6, F2: 0.875e6, K: 1}
	for _, g := range []struct{ n1, n2 int }{{24, 16}, {40, 30}, {64, 48}} {
		for _, lin := range []solver.LinearSolverKind{solver.DirectSparse, solver.MatrixFree} {
			b.Run(fmt.Sprintf("%dx%d/%s", g.n1, g.n2, lin), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var opt Options
					opt.N1, opt.N2, opt.Shear = g.n1, g.n2, sh
					opt.Newton.Linear = lin
					sol, err := QPSS(context.Background(), nonlinearMixer(sh), opt)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(sol.Stats.NewtonIters), "newton-iters")
					b.ReportMetric(float64(sol.Stats.LinearIters), "linear-iters")
				}
			})
		}
	}
}
