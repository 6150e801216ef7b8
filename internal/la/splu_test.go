package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mnaSpec shapes a random MNA-like test matrix.
type mnaSpec struct {
	nodes   int // node-voltage unknowns
	sources int // grounded voltage sources: branch rows with a zero diagonal
	links   int // conductances between random node pairs
	vccs    int // one-sided transconductances, which make the pattern unsymmetric
	hub     int // node 0 is linked to this many other nodes
}

// mnaMatrix builds a random MNA-like matrix: a conductance block over the
// first spec.nodes unknowns, then one branch row and column per grounded
// voltage source, whose diagonal is structurally zero. The pattern depends on
// patternSeed alone and the values on valueSeed, so two calls with the same
// patternSeed give same-pattern matrices. The symmetric part of the
// conductance block is strictly diagonally dominant and the sources sit on
// distinct nodes, so every matrix is nonsingular.
func mnaMatrix(s mnaSpec, patternSeed, valueSeed int64) *CSR {
	rp := rand.New(rand.NewSource(patternSeed))
	rv := rand.New(rand.NewSource(valueSeed))
	n := s.nodes + s.sources
	tr := NewTriplet(n, n)
	offAbs := make([]float64, s.nodes) // |row| + |column| off-diagonal sums
	stamp := func(i, j int, v float64) {
		tr.Append(i, j, v)
		offAbs[i] += math.Abs(v)
		offAbs[j] += math.Abs(v)
	}
	link := func(a, b int) {
		g := 0.1 + rv.Float64()
		stamp(a, b, -g)
		stamp(b, a, -g)
	}
	for h := 1; h <= s.hub; h++ {
		link(0, h)
	}
	for l := 0; l < s.links; l++ {
		if a, b := rp.Intn(s.nodes), rp.Intn(s.nodes); a != b {
			link(a, b)
		}
	}
	for l := 0; l < s.vccs; l++ {
		if c, d := rp.Intn(s.nodes), rp.Intn(s.nodes); c != d {
			stamp(c, d, rv.NormFloat64())
		}
	}
	for k, a := range rp.Perm(s.nodes)[:s.sources] {
		br := s.nodes + k
		tr.Append(a, br, 1)
		tr.Append(br, a, 1)
	}
	for i := 0; i < s.nodes; i++ {
		tr.Append(i, i, 0.5+rv.Float64()+offAbs[i])
	}
	return tr.Compress()
}

// blockDiag places the matrices along the diagonal of one larger matrix,
// with no coupling between them.
func blockDiag(ms ...*CSR) *CSR {
	n := 0
	for _, m := range ms {
		n += m.Rows
	}
	tr := NewTriplet(n, n)
	base := 0
	for _, m := range ms {
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				tr.Append(base+i, base+m.ColIdx[k], m.Val[k])
			}
		}
		base += m.Rows
	}
	return tr.Compress()
}

// symDegree is row i's degree in the off-diagonal pattern of A+Aᵀ.
func symDegree(a *CSR, i int) int {
	cp, _ := symPattern(a)
	return cp[i+1] - cp[i]
}

// denseSolve is the reference solution: dense LU with partial pivoting.
func denseSolve(t *testing.T, a *CSR, b []float64) []float64 {
	t.Helper()
	f, err := DenseLU(a.Dense())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(b))
	f.Solve(b, x)
	return x
}

func checkAgainstDense(t *testing.T, what string, a *CSR, b, x []float64) {
	t.Helper()
	want := denseSolve(t, a, b)
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(x[i] - want[i]); d > 1e-9*scale || math.IsNaN(x[i]) {
			t.Fatalf("%s: x[%d] = %v, dense LU gives %v", what, i, x[i], want[i])
		}
	}
}

// TestSparseLUMatchesDenseLU checks the ordered sparse LU against dense LU on
// MNA-like matrices: zero-diagonal source rows, a row denser than the
// ordering's dense threshold, disconnected blocks and n = 1. It covers the
// fresh factorisation, Refactor, Solve with b and x aliased and BatchLU
// slot solves.
func TestSparseLUMatchesDenseLU(t *testing.T) {
	denseRow := mnaSpec{nodes: 300, sources: 10, links: 500, vccs: 60, hub: 260}
	cases := []struct {
		name  string
		build func(valueSeed int64) *CSR
	}{
		{"mna", func(v int64) *CSR {
			return mnaMatrix(mnaSpec{nodes: 40, sources: 6, links: 60, vccs: 12}, 1, v)
		}},
		{"dense-row", func(v int64) *CSR { return mnaMatrix(denseRow, 2, v) }},
		{"blocks", func(v int64) *CSR {
			one := NewTriplet(1, 1)
			one.Append(0, 0, 2+float64(v))
			return blockDiag(
				mnaMatrix(mnaSpec{nodes: 25, sources: 3, links: 40, vccs: 5}, 3, v),
				one.Compress(),
				mnaMatrix(mnaSpec{nodes: 30, sources: 4, links: 45, vccs: 8}, 4, v+100))
		}},
		{"n=1", func(v int64) *CSR {
			one := NewTriplet(1, 1)
			one.Append(0, 0, -0.5-float64(v))
			return one.Compress()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a0, a1, a2 := tc.build(10), tc.build(11), tc.build(12)
			n := a0.Rows
			if tc.name == "dense-row" {
				if d, lim := symDegree(a0, 0), amdDense(n); d <= lim {
					t.Fatalf("hub degree %d does not exceed the dense threshold %d", d, lim)
				}
			}
			rng := rand.New(rand.NewSource(int64(n)))
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)

			f, err := SparseLUFactor(a0, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			f.Solve(b, x)
			checkAgainstDense(t, "factor", a0, b, x)
			inPlace := append([]float64(nil), b...)
			f.Solve(inPlace, inPlace)
			checkAgainstDense(t, "aliased solve", a0, b, inPlace)

			if err := f.Refactor(a1); err != nil {
				t.Fatal(err)
			}
			f.Solve(b, x)
			checkAgainstDense(t, "refactor", a1, b, x)

			bl, err := NewBatchLU(a0, 0.001, 3)
			if err != nil {
				t.Fatal(err)
			}
			ms := []*CSR{a0, a1, a2}
			work := make([]float64, bl.N())
			for k, m := range ms {
				if fb, err := bl.Refactor(k, m, work); err != nil || fb {
					t.Fatalf("slot %d: Refactor = %v, %v; want shared-analysis reuse", k, fb, err)
				}
			}
			for k, m := range ms {
				y := append([]float64(nil), b...)
				bl.Solve(k, y, y, work)
				checkAgainstDense(t, "batch slot", m, b, y)
			}
		})
	}
}

// TestSparseLURefactorReproducesFactor: Refactor replays the fresh
// factorisation's elimination order, so on the same values it reproduces the
// factors, and so the solution, bit for bit.
func TestSparseLURefactorReproducesFactor(t *testing.T) {
	a := mnaMatrix(mnaSpec{nodes: 80, sources: 8, links: 150, vccs: 20}, 5, 6)
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	lx := append([]float64(nil), f.lx...)
	ux := append([]float64(nil), f.ux...)
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	for p := range lx {
		if math.Float64bits(lx[p]) != math.Float64bits(f.lx[p]) {
			t.Fatalf("L value %d: refactor %v, factor %v", p, f.lx[p], lx[p])
		}
	}
	for p := range ux {
		if math.Float64bits(ux[p]) != math.Float64bits(f.ux[p]) {
			t.Fatalf("U value %d: refactor %v, factor %v", p, f.ux[p], ux[p])
		}
	}
}

func isPermutation(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestAMDOrderIsPermutation(t *testing.T) {
	diag := func(n int) *CSR {
		tr := NewTriplet(n, n)
		for i := 0; i < n; i++ {
			tr.Append(i, i, 1)
		}
		return tr.Compress()
	}
	cases := map[string]*CSR{
		"n=0":       NewTriplet(0, 0).Compress(),
		"n=1":       diag(1),
		"n=2":       batchFamily(2, 1, 1)[0],
		"diagonal":  diag(12),
		"banded":    batchFamily(50, 1, 2)[0],
		"mna":       mnaMatrix(mnaSpec{nodes: 60, sources: 5, links: 90, vccs: 10}, 7, 1),
		"dense-row": mnaMatrix(mnaSpec{nodes: 250, sources: 5, links: 200, hub: 240}, 8, 1),
		// Fills enough to run out of the quotient graph's elbow room, so
		// the elimination has to compact its storage.
		"compacting": randomTriplet(rand.New(rand.NewSource(1)), 200, 1200).Compress(),
	}
	for name, a := range cases {
		if q := amdOrder(a); !isPermutation(q, a.Rows) {
			t.Errorf("%s: amdOrder = %v is not a permutation of 0..%d", name, q, a.Rows-1)
		}
	}
}

// TestAMDOrdersStarWithoutFill: a star whose hub is below the dense
// threshold must be eliminated leaves first, hub last, so the LU has no fill
// (the factors store exactly the entries of A plus one more diagonal). The
// natural order, hub first, fills the whole leaf block.
func TestAMDOrdersStarWithoutFill(t *testing.T) {
	const n, leaves = 120, 60
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, float64(n))
		if i > 0 && i <= leaves {
			tr.Append(0, i, 1)
			tr.Append(i, 0, 1)
		}
	}
	a := tr.Compress()
	if d := symDegree(a, 0); d > amdDense(n) {
		t.Fatalf("hub degree %d is above the dense threshold %d; the test wants it ordered by degree", d, amdDense(n))
	}
	q := amdOrder(a)
	hubAt := slices.Index(q, 0)
	for _, leaf := range q[hubAt+1:] {
		if leaf >= 1 && leaf <= leaves {
			t.Fatalf("leaf %d ordered after the hub (position %d)", leaf, hubAt)
		}
	}
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.NNZ(), a.NNZ()+n; got != want {
		t.Fatalf("LU stores %d entries, want %d (no fill)", got, want)
	}
}
