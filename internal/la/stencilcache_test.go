package la

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// stencilCounts snapshots a stencil table's counters.
type stencilCounts struct{ hits, misses int64 }

func stencilCountsOf(tab *stencilTable) stencilCounts {
	return stencilCounts{tab.hits.Load(), tab.misses.Load()}
}

// cloneSources returns sources with src's patterns and values in fresh
// slices, as another job's stamps hand out the same circuit's patterns.
func cloneSources(src []*CSR) []*CSR {
	out := make([]*CSR, len(src))
	for s, m := range src {
		out[s] = &CSR{Rows: m.Rows, Cols: m.Cols,
			RowPtr: slices.Clone(m.RowPtr), ColIdx: slices.Clone(m.ColIdx), Val: slices.Clone(m.Val)}
	}
	return out
}

func cloneGroups(groups [][]BlockTerm) [][]BlockTerm {
	out := make([][]BlockTerm, len(groups))
	for g, terms := range groups {
		out[g] = slices.Clone(terms)
	}
	return out
}

// randomStencil returns a two-group stencil over six random 5×5 sources,
// with repeated destination blocks.
func randomStencil(seed int64) (bs, rows, cols int, src []*CSR, groups [][]BlockTerm) {
	rng := rand.New(rand.NewSource(seed))
	bs, rows, cols = 5, 5, 4
	src = make([]*CSR, 6)
	for s := range src {
		src[s] = randomTriplet(rng, bs, 8).Compress()
	}
	groups = make([][]BlockTerm, 2)
	for g := range groups {
		for r := 0; r < rows; r++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				groups[g] = append(groups[g], BlockTerm{Row: int32(r), Col: int32(rng.Intn(cols)),
					Src: int32(rng.Intn(len(src))), Coef: int32(rng.Intn(3))})
			}
		}
	}
	return
}

// TestBlockStencilTableLoadsEqualShape: a second stencil with equal terms
// over equal-content sources in other slices loads the first one's plan
// without compiling. Bind hands out the first plan's pattern slices, and
// the replay matches the Triplet bit for bit.
func TestBlockStencilTableLoadsEqualShape(t *testing.T) {
	bs, rows, cols, src, groups := randomStencil(11)
	tab := newStencilTable(stencilCacheBytes)
	first := NewBlockStencil(bs, rows, cols, src, groups)
	if !first.prepareIn(tab) {
		t.Fatal("the first Prepare took no plan")
	}
	var m0 CSR
	first.Bind(&m0)
	if c := stencilCountsOf(tab); c != (stencilCounts{0, 1}) {
		t.Fatalf("after the first Prepare: counts %+v, want 1 miss", c)
	}

	src2 := cloneSources(src)
	second := NewBlockStencil(bs, rows, cols, src2, cloneGroups(groups))
	if !second.prepareIn(tab) {
		t.Fatal("a load must report a new plan, so that callers Bind")
	}
	if c := stencilCountsOf(tab); c != (stencilCounts{1, 1}) {
		t.Fatalf("after the second Prepare: counts %+v, want 1 hit and 1 miss", c)
	}
	var m CSR
	second.Bind(&m)
	if !sameSlice(m.RowPtr, m0.RowPtr) || !sameSlice(m.ColIdx, m0.ColIdx) {
		t.Fatal("the loaded plan handed out a pattern of its own")
	}
	if second.prepareIn(tab) {
		t.Fatal("an unchanged stencil took a new plan")
	}
	rng := rand.New(rand.NewSource(5))
	coef := []float64{rng.NormFloat64(), 1 / 3.0, -2}
	for _, s := range src2 {
		for k := range s.Val {
			s.Val[k] = rng.NormFloat64()
		}
	}
	for g, terms := range groups {
		second.Replay(m.Val, coef, g, 0, rows)
		if want := stencilTriplet(bs, rows, cols, src2, terms, coef).Compress(); !replayMatches(&m, want) {
			t.Fatalf("group %d: the loaded plan's replay differs from the Triplet", g)
		}
	}
}

// TestBlockStencilTableMissOnChange: a stencil that differs from a stored
// shape in one term, one coefficient index, its group bounds or one source
// entry compiles a plan of its own.
func TestBlockStencilTableMissOnChange(t *testing.T) {
	bs, rows, cols, src, groups := randomStencil(11)
	for _, c := range []struct {
		name   string
		change func(src []*CSR, groups [][]BlockTerm) [][]BlockTerm
	}{
		{"one term's column", func(_ []*CSR, groups [][]BlockTerm) [][]BlockTerm {
			groups[1][2].Col = (groups[1][2].Col + 1) % int32(cols)
			return groups
		}},
		{"one term's source", func(_ []*CSR, groups [][]BlockTerm) [][]BlockTerm {
			groups[0][1].Src = (groups[0][1].Src + 1) % int32(len(src))
			return groups
		}},
		{"one coefficient index", func(_ []*CSR, groups [][]BlockTerm) [][]BlockTerm {
			groups[0][0].Coef = (groups[0][0].Coef + 1) % 3
			return groups
		}},
		{"the group bounds", func(_ []*CSR, groups [][]BlockTerm) [][]BlockTerm {
			return [][]BlockTerm{groups[0], groups[1][:1], groups[1][1:]}
		}},
		{"one source entry", func(src []*CSR, groups [][]BlockTerm) [][]BlockTerm {
			m := src[groups[0][0].Src]
			i := 0
			for m.RowPtr[i+1]-m.RowPtr[i] < 2 {
				i++
			}
			m.ColIdx = slices.Delete(m.ColIdx, m.RowPtr[i+1]-1, m.RowPtr[i+1])
			m.Val = m.Val[:len(m.ColIdx)]
			for r := i + 1; r <= m.Rows; r++ {
				m.RowPtr[r]--
			}
			return groups
		}},
	} {
		tab := newStencilTable(stencilCacheBytes)
		base := NewBlockStencil(bs, rows, cols, src, groups)
		base.prepareIn(tab)
		src2 := cloneSources(src)
		groups2 := c.change(src2, cloneGroups(groups))
		st := NewBlockStencil(bs, rows, cols, src2, groups2)
		st.prepareIn(tab)
		if got := stencilCountsOf(tab); got != (stencilCounts{0, 2}) {
			t.Fatalf("%s: counts %+v, want 2 misses", c.name, got)
		}
		if st.plan == base.plan {
			t.Fatalf("%s: the changed stencil shares the stored plan", c.name)
		}
		var m CSR
		st.Bind(&m)
		coef := []float64{1, -0.5, 3}
		for g, terms := range groups2 {
			st.Replay(m.Val, coef, g, 0, rows)
			if want := stencilTriplet(bs, rows, cols, src2, terms, coef).Compress(); !replayMatches(&m, want) {
				t.Fatalf("%s: group %d replay differs from the Triplet", c.name, g)
			}
		}
	}
}

// TestStencilTableBound: past the byte budget the least recently used plan
// is evicted, the retained bytes never exceed the budget, and a plan larger
// than the whole budget is not stored.
func TestStencilTableBound(t *testing.T) {
	if stencils.Budget() != stencilCacheBytes {
		t.Fatalf("process table budget %d, want stencilCacheBytes %d", stencils.Budget(), stencilCacheBytes)
	}
	type shape struct {
		bs, rows, cols int
		src            []*CSR
		groups         [][]BlockTerm
	}
	shapes := make([]shape, 3)
	size := make([]int, len(shapes))
	for i := range shapes {
		bs, rows, cols, src, groups := randomStencil(int64(20 + i))
		shapes[i] = shape{bs, rows, cols, src, groups}
		st := NewBlockStencil(bs, rows, cols, src, groups)
		st.prepareIn(newStencilTable(stencilCacheBytes))
		size[i] = st.plan.bytes()
	}
	// Room for the last two plans but not all three.
	tab := newStencilTable(size[1] + size[2] + size[0]/2)
	prepare := func(i int) {
		t.Helper()
		s := shapes[i]
		NewBlockStencil(s.bs, s.rows, s.cols, cloneSources(s.src), s.groups).prepareIn(tab)
		if tab.Bytes() > tab.Budget() {
			t.Fatalf("table retains %d bytes over its %d budget", tab.Bytes(), tab.Budget())
		}
	}
	for i := range shapes {
		prepare(i)
	}
	if c := stencilCountsOf(tab); c.misses != 3 || tab.Len() != 2 {
		t.Fatalf("after three shapes: counts %+v, %d entries; want 3 misses, 2 entries", c, tab.Len())
	}
	prepare(1) // hit: shape 2 becomes least recently used
	prepare(0) // evicted earlier: miss, evicting shape 2
	prepare(1)
	if c := stencilCountsOf(tab); c != (stencilCounts{2, 4}) {
		t.Fatalf("counts %+v, want 2 hits and 4 misses", c)
	}
	prepare(2)
	if c := stencilCountsOf(tab); c.misses != 5 {
		t.Fatalf("the least recently used shape hit: counts %+v", c)
	}

	small := newStencilTable(size[0] - 1)
	for range 2 {
		s := shapes[0]
		NewBlockStencil(s.bs, s.rows, s.cols, s.src, s.groups).prepareIn(small)
	}
	if c := stencilCountsOf(small); c != (stencilCounts{0, 2}) || small.Len() != 0 || small.Bytes() != 0 {
		t.Fatalf("a plan over the budget: counts %+v, %d entries, %d bytes; want 2 misses and nothing stored",
			c, small.Len(), small.Bytes())
	}
}

// TestBlockStencilTableConcurrent: goroutines preparing and replaying
// stencils of one shape, each over its own sources, share the table's
// plans; every replay matches its Triplet. The race job runs it.
func TestBlockStencilTableConcurrent(t *testing.T) {
	bs, rows, cols, src, groups := randomStencil(11)
	tab := newStencilTable(stencilCacheBytes)
	const workers, rounds = 4, 8
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own := cloneSources(src)
			var m CSR
			for r := 0; r < rounds; r++ {
				st := NewBlockStencil(bs, rows, cols, own, groups)
				st.prepareIn(tab)
				st.Bind(&m)
				for _, s := range own {
					for k := range s.Val {
						s.Val[k] = rng.NormFloat64()
					}
				}
				coef := []float64{rng.NormFloat64(), 1, -2}
				for g, terms := range groups {
					st.Replay(m.Val, coef, g, 0, rows)
					if want := stencilTriplet(bs, rows, cols, own, terms, coef).Compress(); !replayMatches(&m, want) {
						errs[w] = "replay differs from the Triplet"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
	if c := stencilCountsOf(tab); c.hits+c.misses != workers*rounds || c.misses < 1 || c.misses > workers {
		t.Fatalf("counts %+v for %d Prepares of one shape", c, workers*rounds)
	}
}

// gridLikeStencil returns a stencil of a QPSS grid's shape over n1×n2
// points: block row p sums G(p) and the C terms of two-point difference
// stencils along both axes. As two assembly workers' compiled stamps hand
// them out, points in the first half of the grid share one G and one C
// pattern slice and points in the second half another, equal in content.
func gridLikeStencil(n1, n2 int) *BlockStencil {
	rng := rand.New(rand.NewSource(3))
	const bs = 6
	g, c := randomTriplet(rng, bs, 10).Compress(), randomTriplet(rng, bs, 6).Compress()
	gs := [2]*CSR{g, cloneSources([]*CSR{g})[0]}
	cs := [2]*CSR{c, cloneSources([]*CSR{c})[0]}
	np := n1 * n2
	src := make([]*CSR, 2*np)
	for p := range np {
		w := 2 * p / np
		src[p] = withValues(gs[w], slices.Clone(g.Val))
		src[np+p] = withValues(cs[w], slices.Clone(c.Val))
	}
	terms := make([]BlockTerm, 0, 5*np)
	for p := range np {
		i, j := p%n1, p/n1
		p1 := j*n1 + (i+n1-1)%n1
		p2 := ((j+n2-1)%n2)*n1 + i
		terms = append(terms, Term(p, p, p, 0), Term(p, p, np+p, 1), Term(p, p1, np+p1, 2),
			Term(p, p, np+p, 3), Term(p, p2, np+p2, 4))
	}
	return NewBlockStencil(bs, np, np, src, [][]BlockTerm{terms})
}

// TestBlockStencilTableHitAllocsBounded: a Prepare served by the
// process-wide table allocates a constant number of times, the same for
// an 8×6 grid as for a 40×30 one.
func TestBlockStencilTableHitAllocsBounded(t *testing.T) {
	skipUnderRace(t)
	var allocs []float64
	for _, n := range [][2]int{{8, 6}, {40, 30}} {
		st := gridLikeStencil(n[0], n[1])
		st.Prepare() // stores the plan
		_, misses := StencilCacheStats()
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			st.plan = nil
			st.Prepare()
		}))
		if _, m := StencilCacheStats(); m != misses {
			t.Fatalf("%d×%d: %d Prepares missed the table", n[0], n[1], m-misses)
		}
	}
	t.Logf("a table hit allocates %v times at 8×6 and %v at 40×30", allocs[0], allocs[1])
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("a table hit allocates %v times at 8×6 and %v at 40×30, want the same, at most 2", allocs[0], allocs[1])
	}
}
