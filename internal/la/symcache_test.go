package la

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// factorDiff describes the first difference between two factorisations —
// orders, L/U structure, value bits, fill — or returns "" when they agree
// bit for bit.
func factorDiff(got, want *SparseLU) string {
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"pinv", got.pinv, want.pinv}, {"q", got.q, want.q},
		{"lp", got.lp, want.lp}, {"li", got.li, want.li},
		{"up", got.up, want.up}, {"ui", got.ui, want.ui},
	} {
		if !slices.Equal(c.got, c.want) {
			return c.name + " differs"
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"lx", got.lx, want.lx}, {"ux", got.ux, want.ux}} {
		if len(c.got) != len(c.want) {
			return c.name + " length differs"
		}
		for p := range c.got {
			if math.Float64bits(c.got[p]) != math.Float64bits(c.want[p]) {
				return c.name + " bits differ"
			}
		}
	}
	if math.Float64bits(got.FillFactor) != math.Float64bits(want.FillFactor) {
		return "fill factor differs"
	}
	return ""
}

// withValues returns a matrix on a's pattern slices with the given values.
func withValues(a *CSR, val []float64) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: val}
}

// entryAt returns the index of a(i, j) in a.Val, or -1.
func entryAt(a *CSR, i, j int) int {
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		if a.ColIdx[p] == j {
			return p
		}
	}
	return -1
}

// tableCounts snapshots a table's counters.
type tableCounts struct{ hits, misses, rejections int64 }

func countsOf(tab *symbolicTable) tableCounts {
	h, m, r := tab.stats()
	return tableCounts{h, m, r}
}

// TestSparseLUFactorReusesAnalysisBitForBit drives a private table through
// hits, misses and rejections on a fill-in MNA family and checks every
// result against an uncached factorisation: orders, structure and value
// bits, or the same error.
func TestSparseLUFactorReusesAnalysisBitForBit(t *testing.T) {
	spec := mnaSpec{nodes: 60, sources: 6, links: 110, vccs: 15}
	a0 := mnaMatrix(spec, 21, 1)
	// New values on the same pattern, close enough to a0's that threshold
	// pivoting keeps its choices. (The family's other value seeds move the
	// off-diagonal pivots of the source columns.)
	rng := rand.New(rand.NewSource(3))
	val := slices.Clone(a0.Val)
	for p := range val {
		val[p] *= 1 + 0.01*rng.Float64()
	}
	a1 := withValues(a0, val)
	tab := newSymbolicTable(symbolicCacheBytes)
	step := func(what string, a *CSR, tol float64, want tableCounts) *SparseLU {
		t.Helper()
		got, gerr := tab.factor(a, tol)
		ref, rerr := factorFresh(a, tol)
		if gerr != nil || rerr != nil {
			if gerr == nil || rerr == nil || gerr.Error() != rerr.Error() {
				t.Fatalf("%s: table error %v, fresh error %v", what, gerr, rerr)
			}
		} else if d := factorDiff(got, ref); d != "" {
			t.Fatalf("%s: %s from a fresh factorisation", what, d)
		}
		if c := countsOf(tab); c != want {
			t.Fatalf("%s: table counts %+v, want %+v", what, c, want)
		}
		return ref
	}

	ref := step("first factor", a0, 0.001, tableCounts{0, 1, 0})
	if ref.NNZ() <= 2*a0.NNZ()-a0.Rows {
		t.Fatalf("LU stores %d entries for %d in A; the family should fill in", ref.NNZ(), a0.NNZ())
	}
	step("same values", a0, 0.001, tableCounts{1, 1, 0})
	if f := step("new values, same pivots", a1, 0.001, tableCounts{2, 1, 0}); !slices.Equal(f.pinv, ref.pinv) {
		t.Fatal("the new values moved a pivot")
	}

	// A column the elimination leaves untouched (U holds only its pivot)
	// whose recorded pivot is its diagonal: there x is A's column itself,
	// so zeroing the diagonal makes threshold pivoting pick another row.
	k := -1
	for c := 0; c < ref.n; c++ {
		if ref.up[c+1]-ref.up[c] == 1 && ref.pinv[ref.q[c]] == c && ref.lp[c+1]-ref.lp[c] > 1 {
			k = c
			break
		}
	}
	if k < 0 {
		t.Fatal("no untouched diagonal-pivot column with L entries")
	}
	d := ref.q[k]
	moved := slices.Clone(a1.Val)
	moved[entryAt(a1, d, d)] = 0
	a2 := withValues(a1, moved)
	fresh2 := step("moved pivot", a2, 0.001, tableCounts{2, 1, 1})
	if fresh2.pinv[d] == k {
		t.Fatal("zeroing the diagonal did not move the pivot")
	}
	// The rejection stored the fresh analysis: the same values now hit.
	step("moved pivot again", a2, 0.001, tableCounts{3, 1, 1})

	// Pivot tolerances are kept apart: tol 1 gets its own entry, and the
	// tol 0.001 entry still holds a2's analysis.
	step("tol 1", a1, 1, tableCounts{3, 2, 1})
	step("tol 1 again", a1, 1, tableCounts{4, 2, 1})
	step("tol 0.001 kept", a2, 0.001, tableCounts{5, 2, 1})

	// The rows of column d besides the diagonal: the recorded pivot and
	// one other candidate.
	piv, other := -1, -1
	for i := 0; i < a2.Rows; i++ {
		p := entryAt(a2, i, d)
		if p < 0 || i == d {
			continue
		}
		switch {
		case fresh2.pinv[i] == k:
			piv = p
		case other < 0:
			other = p
		}
	}
	if piv < 0 || other < 0 {
		t.Fatal("the moved column has no second candidate")
	}

	// A diagonal below the recorded off-diagonal maximum but above the
	// threshold: the fresh factorisation prefers it, so the hit must not
	// keep the recorded pivot.
	eligible := slices.Clone(moved)
	eligible[entryAt(a1, d, d)] = 0.5 * math.Abs(moved[piv])
	step("eligible diagonal", withValues(a1, eligible), 0.001, tableCounts{5, 2, 2})
	step("moved pivot, third time", a2, 0.001, tableCounts{5, 2, 3})

	// An off-diagonal pivot tied with another candidate: the fresh scan
	// breaks the tie by DFS order, so the table must not guess.
	tied := slices.Clone(moved)
	tied[other] = -tied[piv]
	step("tied pivot", withValues(a1, tied), 0.001, tableCounts{5, 2, 4})

	// A singular matrix fails with the fresh factorisation's error.
	step("singular", withValues(a1, make([]float64, len(a1.Val))), 0.001, tableCounts{5, 2, 5})
}

// TestPivotHoldsMirrorsThresholdRule checks the per-column verification on
// hand-made columns (x in pivotal numbering, q the identity): a recorded
// diagonal pivot must pass the threshold test itself; a recorded
// off-diagonal one must be the strict maximum, with the diagonal already
// pivotal or below the threshold.
func TestPivotHoldsMirrorsThresholdRule(t *testing.T) {
	nan := math.NaN()
	diagRecorded := []int{0, 1, 2}  // column 0 pivots on its diagonal
	diagCandidate := []int{1, 0, 2} // column 0 pivots on row 1; its diagonal sits at x[1]
	diagPivotal := []int{1, 0, 2}   // column 1's diagonal row is pivotal at column 0
	for _, c := range []struct {
		name            string
		pinv            []int
		k               int
		pivot, maxBelow float64
		x               []float64
		want            bool
	}{
		{"diagonal at the threshold", diagRecorded, 0, 5e-4, 0.5, []float64{0, 0, 0}, true},
		{"diagonal below the threshold", diagRecorded, 0, 4e-4, 0.5, []float64{0, 0, 0}, false},
		{"diagonal larger than the rest", diagRecorded, 0, -3, 0.5, []float64{0, 0, 0}, true},
		{"singular column", diagRecorded, 0, 0, 0, []float64{0, 0, 0}, false},
		{"NaN diagonal", diagRecorded, 0, nan, 1, []float64{0, 0, 0}, false},
		{"off-diagonal strict maximum", diagCandidate, 0, -2, 1, []float64{0, 1e-4, 0}, true},
		{"off-diagonal with an eligible diagonal", diagCandidate, 0, 2, 1, []float64{0, 0.5, 0}, false},
		{"off-diagonal with a NaN diagonal", diagCandidate, 0, 2, 1, []float64{0, nan, 0}, true},
		{"off-diagonal tie", diagCandidate, 0, 2, 2, []float64{0, 0, 0}, false},
		{"off-diagonal below another candidate", diagCandidate, 0, 1, 2, []float64{0, 0, 0}, false},
		{"off-diagonal NaN pivot", diagCandidate, 0, nan, 1, []float64{0, 0, 0}, false},
		{"off-diagonal, diagonal already pivotal", diagPivotal, 1, 1, 0, []float64{100, 0, 0}, true},
	} {
		f := &SparseLU{n: 3, q: []int{0, 1, 2}, pinv: c.pinv}
		if got := f.pivotHolds(c.k, c.pivot, c.maxBelow, c.x, 0.001); got != c.want {
			t.Errorf("%s: pivotHolds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSparseLUFactorConcurrentHits: goroutines factoring one pattern with
// their own values share the stored analysis and still match a fresh
// factorisation bit for bit.
func TestSparseLUFactorConcurrentHits(t *testing.T) {
	const workers = 4
	base := mnaMatrix(mnaSpec{nodes: 50, sources: 5, links: 90, vccs: 12}, 22, 0)
	tab := newSymbolicTable(symbolicCacheBytes)
	if _, err := tab.factor(base, 0.001); err != nil {
		t.Fatal(err)
	}
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < 5; r++ {
				val := slices.Clone(base.Val)
				for p := range val {
					val[p] *= 1 + 0.01*rng.Float64()
				}
				a := withValues(base, val)
				got, err := tab.factor(a, 0.001)
				if err != nil {
					errs[w] = err.Error()
					return
				}
				ref, _ := factorFresh(a, 0.001)
				if d := factorDiff(got, ref); d != "" {
					errs[w] = d
					return
				}
				b := make([]float64, a.Rows)
				b[r] = 1
				got.Solve(b, b)
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", w, e)
		}
	}
	if c := countsOf(tab); c != (tableCounts{workers * 5, 1, 0}) {
		t.Fatalf("table counts %+v, want %d hits after one miss", c, workers*5)
	}
}

// TestSymbolicTableBound: past the byte budget the least recently used
// pattern is evicted, and the retained bytes never exceed the budget.
func TestSymbolicTableBound(t *testing.T) {
	if symbolic.Budget() != symbolicCacheBytes {
		t.Fatalf("process table budget %d, want symbolicCacheBytes %d", symbolic.Budget(), symbolicCacheBytes)
	}
	pats := []*CSR{batchFamily(40, 1, 1)[0], batchFamily(41, 1, 2)[0], batchFamily(42, 1, 3)[0]}
	size := make([]int, len(pats))
	for i, a := range pats {
		f, err := factorFresh(a, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		size[i] = f.analysis().analysisBytes()
	}
	// Room for the last two patterns but not all three.
	tab := newSymbolicTable(size[1] + size[2] + size[0]/2)
	factor := func(i int) {
		t.Helper()
		if _, err := tab.factor(pats[i], 0.001); err != nil {
			t.Fatal(err)
		}
		if tab.Bytes() > tab.Budget() {
			t.Fatalf("table retains %d bytes over its %d budget", tab.Bytes(), tab.Budget())
		}
	}
	for i := range pats {
		factor(i)
	}
	if c := countsOf(tab); c.misses != 3 || tab.Len() != 2 {
		t.Fatalf("after three patterns: counts %+v, %d entries; want 3 misses, 2 entries", c, tab.Len())
	}
	factor(1) // hit: pattern 2 becomes least recently used
	factor(0) // evicted earlier: miss, evicting pattern 2
	factor(1)
	if c := countsOf(tab); c != (tableCounts{2, 4, 0}) {
		t.Fatalf("counts %+v, want 2 hits and 4 misses", c)
	}
	factor(2)
	if c := countsOf(tab); c.misses != 5 {
		t.Fatalf("the least recently used pattern hit: counts %+v", c)
	}

	// An analysis larger than the whole budget is not kept.
	small := newSymbolicTable(size[0] - 1)
	for r := 0; r < 2; r++ {
		if _, err := small.factor(pats[0], 0.001); err != nil {
			t.Fatal(err)
		}
	}
	if c := countsOf(small); c.misses != 2 || small.Bytes() != 0 {
		t.Fatalf("oversized analysis: counts %+v, %d bytes retained", c, small.Bytes())
	}
}

// TestSparseLUFactorHitAllocsBounded: a table hit allocates the same small
// number of times whatever n is — the factor, its two value arrays and its
// scratch — where a fresh factorisation grows its arrays with n.
func TestSparseLUFactorHitAllocsBounded(t *testing.T) {
	skipUnderRace(t)
	var counts []float64
	for _, n := range []int{50, 800} {
		a := batchFamily(n, 1, 41)[0]
		if _, err := SparseLUFactor(a, 0.001); err != nil {
			t.Fatal(err)
		}
		var err error
		allocs := testing.AllocsPerRun(20, func() { _, err = SparseLUFactor(a, 0.001) })
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, allocs)
	}
	t.Logf("allocations per hit at n = 50, 800: %v", counts)
	if counts[0] != counts[1] || counts[0] > 4 {
		t.Fatalf("a hit allocates %v times at n = 50, 800; want the same count, at most 4", counts)
	}
}

// errString is err's text, or "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstFresh factors a through the process table and without it;
// the two must agree bit for bit or fail with the same error.
func checkAgainstFresh(t *testing.T, what string, a *CSR, tol float64) {
	t.Helper()
	got, gerr := SparseLUFactor(a, tol)
	ref, rerr := factorFresh(a, tol)
	if errString(gerr) != errString(rerr) {
		t.Fatalf("%s: table error %v, fresh error %v", what, gerr, rerr)
	}
	if gerr != nil && !errors.Is(gerr, ErrSingular) {
		t.Fatalf("%s: factor failed without ErrSingular: %v", what, gerr)
	}
	if gerr == nil {
		if d := factorDiff(got, ref); d != "" {
			t.Fatalf("%s: %s from a fresh factorisation", what, d)
		}
	}
}
