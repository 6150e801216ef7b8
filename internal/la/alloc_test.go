package la

import (
	"math"
	"testing"
)

// The hot-path allocation contracts: once warm, a Newton iteration's linear
// algebra — numeric refactorisation, triangular solve, a GMRES solve on a
// held solver — runs without touching the allocator. These are regression
// gates (CI runs them without -race); the bound is exactly zero.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
}

func TestSparseLUSolveNoAllocs(t *testing.T) {
	skipUnderRace(t)
	a := batchFamily(200, 1, 31)[0]
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 200)
	x := make([]float64, 200)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	f.Solve(b, x) // warm-up sizes the owned scratch
	if allocs := testing.AllocsPerRun(100, func() { f.Solve(b, x) }); allocs != 0 {
		t.Fatalf("SparseLU.Solve allocates %v/op, want 0", allocs)
	}
}

func TestSparseLUSolveAliasing(t *testing.T) {
	a := batchFamily(50, 1, 37)[0]
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 50)
	for i := range b {
		b[i] = float64(i%3) + 0.5
	}
	want := make([]float64, 50)
	f.Solve(b, want)
	// x aliasing b must give the same answer.
	inPlace := append([]float64(nil), b...)
	f.Solve(inPlace, inPlace)
	for i := range want {
		if math.Abs(inPlace[i]-want[i]) > 1e-14*(1+math.Abs(want[i])) {
			t.Fatalf("aliased solve diverges at %d: %v vs %v", i, inPlace[i], want[i])
		}
	}
}

func TestSparseLURefactorNoAllocs(t *testing.T) {
	skipUnderRace(t)
	fam := batchFamily(200, 2, 41)
	f, err := SparseLUFactor(fam[0], 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(fam[1]); err != nil { // warm-up sizes the scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := f.Refactor(fam[1]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SparseLU.Refactor allocates %v/op, want 0", allocs)
	}
}

// TestBatchLUSolveNoAllocs: a slot solve and a slot refactor through the
// shared, column-permuted symbolic analysis run in the caller's scratch.
func TestBatchLUSolveNoAllocs(t *testing.T) {
	skipUnderRace(t)
	spec := mnaSpec{nodes: 150, sources: 10, links: 250, vccs: 30}
	ms := []*CSR{mnaMatrix(spec, 43, 1), mnaMatrix(spec, 43, 2)}
	b, err := NewBatchLU(ms[0], 0.001, len(ms))
	if err != nil {
		t.Fatal(err)
	}
	permuted := false
	for k, c := range b.sym.q {
		permuted = permuted || k != c
	}
	if !permuted {
		t.Fatal("the ordering left the columns in natural order; the test wants a permuted solve")
	}
	n := b.N()
	work := make([]float64, n)
	for k, m := range ms {
		if fb, err := b.Refactor(k, m, work); err != nil || fb {
			t.Fatalf("slot %d: Refactor = %v, %v; want shared-analysis reuse", k, fb, err)
		}
	}
	rhs, x := make([]float64, n), make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i))
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Solve(1, rhs, x, work) }); allocs != 0 {
		t.Fatalf("BatchLU.Solve allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := b.Refactor(1, ms[1], work); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("BatchLU.Refactor allocates %v/op, want 0", allocs)
	}
}

func TestGMRESSolverSteadyStateNoAllocs(t *testing.T) {
	skipUnderRace(t)
	const n = 120
	d := make([]float64, n)
	b := make([]float64, n)
	for i := range d {
		d[i] = 2 + float64(i%5)
		b[i] = math.Cos(float64(i))
	}
	m := diagCSR(d)
	op := AsOperator(m)
	var s GMRESSolver
	x := make([]float64, n)
	opt := GMRESOptions{Tol: 1e-10}
	if _, err := s.Solve(op, b, x, opt); err != nil { // warm-up grows the workspace
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		Fill(x, 0)
		if _, err := s.Solve(op, b, x, opt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("GMRESSolver.Solve allocates %v/op at steady state, want 0", allocs)
	}
}
