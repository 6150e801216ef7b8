package la

import (
	"math"
	"math/rand"
	"testing"
)

// randomTriplet stamps nnz random entries (duplicates likely) into an n×n
// triplet plus a guaranteed nonsingular diagonal.
func randomTriplet(rng *rand.Rand, n, nnz int) *Triplet {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 4+rng.Float64())
	}
	for k := 0; k < nnz; k++ {
		tr.Append(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return tr
}

func csrEqual(t *testing.T, a, b *CSR, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] != b.RowPtr[i+1] {
			t.Fatalf("row %d: rowptr %d vs %d", i, a.RowPtr[i+1], b.RowPtr[i+1])
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != b.ColIdx[k] {
				t.Fatalf("row %d slot %d: col %d vs %d", i, k, a.ColIdx[k], b.ColIdx[k])
			}
			if math.Abs(a.Val[k]-b.Val[k]) > tol {
				t.Fatalf("row %d col %d: val %v vs %v", i, a.ColIdx[k], a.Val[k], b.Val[k])
			}
		}
	}
}

// TestPatternBuilderAndRowStamper checks that symbolic-pattern stamping
// reproduces a triplet-compressed matrix exactly, and that out-of-pattern
// stamps are rejected without modifying the matrix.
func TestPatternBuilderAndRowStamper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 25
	tr := randomTriplet(rng, n, 150)
	want := tr.Compress()

	pb := NewPatternBuilder(n, n)
	for k := range tr.V {
		pb.Add(tr.I[k], tr.J[k])
	}
	m := pb.Build()
	if m.NNZ() != want.NNZ() {
		t.Fatalf("pattern nnz %d, want %d", m.NNZ(), want.NNZ())
	}
	st := NewRowStamper(m)
	for pass := 0; pass < 3; pass++ { // reuse across "iterations"
		st.ZeroRows(0, n)
		for i := 0; i < n; i++ {
			st.SetRow(i)
			for k := range tr.V {
				if tr.I[k] != i {
					continue
				}
				if !st.Add(tr.J[k], tr.V[k]) {
					t.Fatalf("in-pattern stamp (%d,%d) rejected", i, tr.J[k])
				}
			}
		}
		csrEqual(t, m, want, 1e-13)
	}
	// A column outside the row's pattern must be refused and leave values
	// untouched.
	before := append([]float64(nil), m.Val...)
	st.SetRow(0)
	missing := -1
	for j := 0; j < n; j++ {
		if m.At(0, j) == 0 && !inPattern(m, 0, j) {
			missing = j
			break
		}
	}
	if missing >= 0 {
		if st.Add(missing, 1) {
			t.Fatalf("out-of-pattern stamp (0,%d) accepted", missing)
		}
		for k := range before {
			if m.Val[k] != before[k] {
				t.Fatal("rejected stamp modified the matrix")
			}
		}
	}
}

func inPattern(m *CSR, i, j int) bool {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return true
		}
	}
	return false
}

// TestPatternBuilderAddBlock places a local pattern at a block offset.
func TestPatternBuilderAddBlock(t *testing.T) {
	local := NewTriplet(2, 2)
	local.Append(0, 0, 1)
	local.Append(1, 0, 2)
	lm := local.Compress()
	pb := NewPatternBuilder(6, 6)
	pb.AddBlock(lm, 2, 4)
	m := pb.Build()
	if m.NNZ() != 2 || !inPattern(m, 2, 4) || !inPattern(m, 3, 4) {
		t.Fatalf("block pattern wrong: nnz=%d", m.NNZ())
	}
}

// TestSparseLURefactor: a numeric-only refactorisation on a new matrix with
// the same pattern must solve as accurately as a fresh factorisation.
func TestSparseLURefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	tr := randomTriplet(rng, n, 300)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	check := func(m *CSR, f *SparseLU) {
		t.Helper()
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(xTrue, b)
		x := make([]float64, n)
		f.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("solve error at %d: %v vs %v", i, x[i], xTrue[i])
			}
		}
	}
	check(a, f)
	// Restamp the same pattern with new values (in place, the hot path).
	for k := range a.Val {
		a.Val[k] *= 1 + 0.3*rng.Float64()
	}
	for i := 0; i < n; i++ { // keep diagonal dominance-ish
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				a.Val[k] += 2
			}
		}
	}
	if !f.SamePattern(a) {
		t.Fatal("in-place restamp should preserve pattern identity")
	}
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	check(a, f)
	// A different pattern must be refused.
	tr2 := randomTriplet(rng, n, 280)
	b2 := tr2.Compress()
	if f.SamePattern(b2) {
		t.Skip("random patterns collided; extremely unlikely")
	}
	if err := f.Refactor(b2); err == nil {
		t.Fatal("refactor accepted a mismatched pattern")
	}
}

// TestSparseLURefactorSingular: a pattern-preserving value change that kills
// a pivot must fail loudly so callers fall back to a full factorisation.
func TestSparseLURefactorSingular(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, 2)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 2)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Make the matrix exactly singular without touching the pattern.
	a.Val[0], a.Val[1] = 1, 1
	a.Val[2], a.Val[3] = 1, 1
	if err := f.Refactor(a); err == nil {
		t.Fatal("refactor of a singular matrix must fail")
	}
}

// TestSparseLURefactorMatchesFreshFactor compares LU solves after many
// refactor cycles against fresh factorisations on the same values.
func TestSparseLURefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 30
	tr := randomTriplet(rng, n, 220)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for cycle := 0; cycle < 5; cycle++ {
		for k := range a.Val {
			a.Val[k] += 0.05 * rng.NormFloat64()
		}
		if err := f.Refactor(a); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		fresh, err := SparseLUFactor(a, 0.001)
		if err != nil {
			t.Fatalf("cycle %d fresh: %v", cycle, err)
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f.Solve(b, x1)
		fresh.Solve(b, x2)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
				t.Fatalf("cycle %d: refactored solve differs at %d: %v vs %v", cycle, i, x1[i], x2[i])
			}
		}
	}
}

// tripletSum is the reference J = s·C + G: G's entries stamped before C's
// into one Triplet and compressed.
func tripletSum(c, g *CSR, s float64) *CSR {
	tr := NewTriplet(g.Rows, g.Cols)
	for i := 0; i < g.Rows; i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			tr.Append(i, g.ColIdx[k], g.Val[k])
		}
	}
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			tr.Append(i, c.ColIdx[k], s*c.Val[k])
		}
	}
	return tr.Compress()
}

func csrBitsEqual(t *testing.T, got, want *CSR) {
	t.Helper()
	csrEqual(t, got, want, math.Inf(1))
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("slot %d: %v (%#x) vs triplet %v (%#x)", k,
				got.Val[k], math.Float64bits(got.Val[k]), want.Val[k], math.Float64bits(want.Val[k]))
		}
	}
}

// TestCombinerMatchesTriplet pins Combine to the Triplet sum bit for bit —
// shared, G-only and C-only slots, signed zeros included — across scale
// changes, value-only re-evaluations and a pattern change.
func TestCombinerMatchesTriplet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 25
	sparse := func(nnz int) *CSR {
		tr := NewTriplet(n, n)
		for k := 0; k < nnz; k++ {
			tr.Append(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		return tr.Compress()
	}
	c, g := sparse(60), sparse(90)
	c.Val[0], g.Val[1] = math.Copysign(0, -1), math.Copysign(0, -1)
	var b Combiner
	j := b.Combine(c, g, 1e9)
	csrBitsEqual(t, j, tripletSum(c, g, 1e9))
	rowPtr := &j.RowPtr[0]
	for _, s := range []float64{3.7e-3, 1 / 7.0, -2} {
		for k := range c.Val {
			c.Val[k] = rng.NormFloat64()
		}
		for k := range g.Val {
			g.Val[k] = rng.NormFloat64()
		}
		got := b.Combine(c, g, s)
		csrBitsEqual(t, got, tripletSum(c, g, s))
		if &got.RowPtr[0] != rowPtr {
			t.Fatal("unchanged patterns rebuilt J's pattern storage")
		}
	}
	// A pattern change rebuilds the slot maps.
	c2 := sparse(70)
	csrBitsEqual(t, b.Combine(c2, g, 0.5), tripletSum(c2, g, 0.5))
}

func TestCombinerNoAllocs(t *testing.T) {
	skipUnderRace(t)
	fam := batchFamily(100, 2, 41)
	var b Combiner
	b.Combine(fam[0], fam[1], 1e9) // warm-up builds the slot maps
	if allocs := testing.AllocsPerRun(100, func() { b.Combine(fam[0], fam[1], 2e9) }); allocs != 0 {
		t.Fatalf("Combiner.Combine allocates %v/op, want 0", allocs)
	}
}
