package la

import (
	"math/rand"
	"testing"
)

// benchMatrix builds a banded-plus-random sparse system resembling the MPDE
// grid Jacobian's profile.
func benchMatrix(n int) *CSR {
	rng := rand.New(rand.NewSource(42))
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 6+rng.Float64())
		for _, off := range []int{-2, -1, 1, 2} {
			j := i + off
			if j >= 0 && j < n {
				tr.Append(i, j, rng.NormFloat64())
			}
		}
		tr.Append(i, rng.Intn(n), 0.3*rng.NormFloat64())
	}
	return tr.Compress()
}

// BenchmarkSparseLUFactor is the full symbolic+numeric factorisation, the
// cost of a pattern the symbolic table has not seen.
func BenchmarkSparseLUFactor(b *testing.B) {
	a := benchMatrix(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorFresh(a, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseLUFactorHit is SparseLUFactor on a pattern the symbolic
// table holds: a clone of the stored analysis and a pivot-verified
// refactor.
func BenchmarkSparseLUFactorHit(b *testing.B) {
	a := benchMatrix(2000)
	if _, err := SparseLUFactor(a, 0.001); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SparseLUFactor(a, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseLURefactor reuses the symbolic analysis and pivot order —
// the per-Newton-iteration cost once the pattern is frozen.
func BenchmarkSparseLURefactor(b *testing.B) {
	a := benchMatrix(2000)
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Refactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchFamily is the 64-job same-pattern workload of the batched-LU
// benchmarks: one sweep group's worth of line Jacobians.
func batchBenchFamily() []*CSR { return batchFamily(1000, 64, 77) }

// BenchmarkBatchLU64 factors 64 same-pattern matrices through one shared
// symbolic analysis — one symbolic phase plus 64 numeric sweeps.
func BenchmarkBatchLU64(b *testing.B) {
	fam := batchBenchFamily()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl, err := NewBatchLU(fam[0], 0.001, len(fam))
		if err != nil {
			b.Fatal(err)
		}
		work := make([]float64, bl.N())
		fallbacks := 0
		for k, a := range fam {
			fb, err := bl.Refactor(k, a, work)
			if err != nil {
				b.Fatal(err)
			}
			if fb {
				fallbacks++
			}
		}
		b.ReportMetric(float64(fallbacks), "fallbacks")
	}
}

// BenchmarkPerJobFactor64 is the per-job baseline BatchLU replaces: every
// matrix pays its own symbolic analysis and pivot search (factorFresh, so
// the symbolic table does not serve them).
func BenchmarkPerJobFactor64(b *testing.B) {
	fam := batchBenchFamily()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range fam {
			if _, err := factorFresh(a, 0.001); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSparseLUSolveSteadyState is the factorisation-owned-scratch solve
// path; allocs/op must stay at zero.
func BenchmarkSparseLUSolveSteadyState(b *testing.B) {
	a := benchMatrix(2000)
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 2000)
	x := make([]float64, 2000)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	f.Solve(rhs, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs, x)
	}
}

// BenchmarkGMRESSolverSteadyState is a held GMRESSolver re-solving a fixed
// system — the per-Newton-iteration configuration; allocs/op must stay at
// zero once the workspace is warm.
func BenchmarkGMRESSolverSteadyState(b *testing.B) {
	const n = 2000
	d := make([]float64, n)
	rhs := make([]float64, n)
	for i := range d {
		d[i] = 2 + float64(i%9)
		rhs[i] = float64(i%7) - 3
	}
	tr := NewTriplet(n, n)
	for i, v := range d {
		tr.Append(i, i, v)
	}
	m := tr.Compress()
	op := AsOperator(m)
	var s GMRESSolver
	x := make([]float64, n)
	opt := GMRESOptions{Tol: 1e-10}
	if _, err := s.Solve(op, rhs, x, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		if _, err := s.Solve(op, rhs, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTripletCompress is the allocating per-iteration rebuild the
// in-place stamping path replaces.
func BenchmarkTripletCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTriplet(1200, 1200)
	for k := 0; k < 12000; k++ {
		tr.Append(rng.Intn(1200), rng.Intn(1200), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Compress()
	}
}

// BenchmarkStampMapReplay is the device-evaluation replacement: the same
// 12k stamps replayed by slot through a compiled StampMap.
func BenchmarkStampMapReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTriplet(1200, 1200)
	for k := 0; k < 12000; k++ {
		tr.Append(rng.Intn(1200), rng.Intn(1200), rng.NormFloat64())
	}
	m := NewStampMap(1200, 1200)
	var dst CSR
	stampPass(m, &dst, tr, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stampPass(m, &dst, tr, false)
	}
}

// BenchmarkBlockStencilReplay is the in-place replacement: the same 12k
// stamps, dealt round-robin into ten source blocks, replayed by slot into
// their compiled union pattern.
func BenchmarkBlockStencilReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	parts := make([]*Triplet, 10)
	for s := range parts {
		parts[s] = NewTriplet(1200, 1200)
	}
	for k := 0; k < 12000; k++ {
		parts[k%10].Append(rng.Intn(1200), rng.Intn(1200), rng.NormFloat64())
	}
	src := make([]*CSR, len(parts))
	terms := make([]BlockTerm, len(parts))
	for s, tr := range parts {
		src[s] = tr.Compress()
		terms[s] = BlockTerm{Src: int32(s)}
	}
	st := NewBlockStencil(1200, 1, 1, src, [][]BlockTerm{terms})
	var m CSR
	coef := []float64{1}
	st.Assemble(&m, coef)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Assemble(&m, coef)
	}
}

// BenchmarkBlockStencilPrepare: a 40×30 grid-shaped stencil taking its
// plan, compiled on a table miss and loaded on a hit.
func BenchmarkBlockStencilPrepare(b *testing.B) {
	st := gridLikeStencil(40, 30)
	for _, c := range []struct {
		name string
		tab  func() *stencilTable
	}{
		{"miss", func() *stencilTable { return newStencilTable(stencilCacheBytes) }},
		{"hit", func() *stencilTable { return stencils }},
	} {
		b.Run(c.name, func(b *testing.B) {
			st.plan = nil
			st.prepareIn(stencils)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.plan = nil
				st.prepareIn(c.tab())
			}
		})
	}
}
