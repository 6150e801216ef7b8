package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stampPass runs one StampMap pass over the (i, j, v) stamps of tr into dst
// and reports End's verdict.
func stampPass(m *StampMap, dst *CSR, tr *Triplet, record bool) bool {
	m.Begin(dst, record)
	for k := range tr.V {
		m.Add(tr.I[k], tr.J[k], tr.V[k])
	}
	return m.End()
}

// stampEval is what circuit.Eval does with a StampMap: replay, and on a
// sequence miss re-run the pass in record mode.
func stampEval(m *StampMap, dst *CSR, tr *Triplet) {
	if !stampPass(m, dst, tr, false) {
		stampPass(m, dst, tr, true)
	}
}

// decodeStamps turns fuzz bytes into an n×n stamp sequence: byte 0 picks
// n ≤ 12, and every further 3-byte group one stamp (row, column, value
// code). Small n makes duplicates common; value codes include ±0.
func decodeStamps(data []byte) *Triplet {
	if len(data) < 1 {
		return nil
	}
	n := 1 + int(data[0])%12
	tr := NewTriplet(n, n)
	for g := data[1:]; len(g) >= 3 && len(tr.V) < 200; g = g[3:] {
		var v float64
		switch c := int8(g[2]); {
		case c == 0:
			v = 0
		case c == -128:
			v = math.Copysign(0, -1)
		default:
			v = math.Ldexp(float64(c), int(g[2]%7)-3) / 3
		}
		tr.Append(int(g[0])%n, int(g[1])%n, v)
	}
	return tr
}

// csrBitsMatch reports whether got equals want in shape, pattern and the
// bits of every value.
func csrBitsMatch(got, want *CSR) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols ||
		!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
		len(got.Val) != len(want.Val) {
		return false
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return false
		}
	}
	return true
}

// FuzzCompiledStamps pins compiled stamps to Triplet.Compress bit for bit:
// the recording pass, a replay of the same sequence with new values, and a
// pass over a different sequence (which must recompile), duplicates and
// signed zeros included.
func FuzzCompiledStamps(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 128, 1, 2, 5, 1, 2, 251, 2, 2, 9})
	f.Add([]byte{0, 0, 0, 128, 0, 0, 128, 0, 0, 0})
	f.Add([]byte{7, 6, 6, 3, 1, 2, 4, 6, 6, 200, 0, 5, 1, 1, 2, 7, 6, 6, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeStamps(data)
		if tr == nil {
			return
		}
		m := NewStampMap(tr.Rows, tr.Cols)
		var dst CSR
		stampEval(m, &dst, tr)
		if !csrBitsMatch(&dst, tr.Compress()) {
			t.Fatalf("recording pass differs from Compress: %+v vs %+v", dst, *tr.Compress())
		}
		// Same sequence, values rotated: a pure replay.
		tr2 := NewTriplet(tr.Rows, tr.Cols)
		for k := range tr.V {
			tr2.Append(tr.I[k], tr.J[k], tr.V[(k+1)%len(tr.V)])
		}
		if !stampPass(m, &dst, tr2, false) {
			t.Fatal("replay of the recorded sequence missed")
		}
		if !csrBitsMatch(&dst, tr2.Compress()) {
			t.Fatalf("replay differs from Compress: %+v vs %+v", dst, *tr2.Compress())
		}
		// Drop the first stamp and append it with its row shifted: a
		// different sequence, so the pass recompiles.
		if len(tr.V) == 0 {
			return
		}
		tr3 := NewTriplet(tr.Rows, tr.Cols)
		for k := 1; k < len(tr.V); k++ {
			tr3.Append(tr.I[k], tr.J[k], tr.V[k])
		}
		tr3.Append((tr.I[0]+1)%tr.Rows, tr.J[0], tr.V[0])
		stampEval(m, &dst, tr3)
		if !csrBitsMatch(&dst, tr3.Compress()) {
			t.Fatalf("recompiled pass differs from Compress: %+v vs %+v", dst, *tr3.Compress())
		}
	})
}

// TestStampMapRecompileKeepsOldPattern: extra, missing and reordered stamps
// each force a recompile whose result matches Compress, and a pattern
// handed out before a recompile is left exactly as it was.
func TestStampMapRecompileKeepsOldPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomTriplet(rng, 10, 40)
	m := NewStampMap(10, 10)
	var first CSR
	stampEval(m, &first, base)
	rowPtr, colIdx := slices.Clone(first.RowPtr), slices.Clone(first.ColIdx)

	// stamps copies base's stamps at the positions order lists.
	stamps := func(order ...int) *Triplet {
		tr := NewTriplet(10, 10)
		for _, k := range order {
			tr.Append(base.I[k], base.J[k], base.V[k])
		}
		return tr
	}
	all := make([]int, len(base.V))
	for k := range all {
		all[k] = k
	}
	extra := stamps(all...)
	extra.Append(3, 7, 1.5)
	missing := stamps(all[:len(all)-1]...)
	reordered := stamps(all[1:]...)
	reordered.Append(base.I[0], base.J[0], base.V[0])
	for _, c := range []struct {
		name string
		tr   *Triplet
	}{{"extra", extra}, {"missing", missing}, {"reordered", reordered}} {
		name, tr := c.name, c.tr
		var dst CSR
		if stampPass(m, &dst, tr, false) {
			t.Fatalf("%s: replay accepted a different sequence", name)
		}
		stampPass(m, &dst, tr, true)
		if !csrBitsMatch(&dst, tr.Compress()) {
			t.Fatalf("%s: recompiled pass differs from Compress", name)
		}
		if sameSlice(dst.RowPtr, first.RowPtr) {
			t.Fatalf("%s: recompile reused a handed-out pattern", name)
		}
		// Put the base sequence back for the next case.
		stampEval(m, &dst, base)
	}
	if !slices.Equal(first.RowPtr, rowPtr) || !slices.Equal(first.ColIdx, colIdx) {
		t.Fatal("a pattern handed out before a recompile changed")
	}
}

// TestStampMapReadoptsKeptSequences: a map cycling through up to
// stampMapKeep stamp sequences compiles each once and hands the same
// pattern slices out again on every return to it, with values equal to
// Compress bit for bit; one sequence more than it keeps evicts the least
// recently used, which then compiles afresh.
func TestStampMapReadoptsKeptSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seqs := make([]*Triplet, stampMapKeep+1)
	for k := range seqs {
		seqs[k] = randomTriplet(rng, 10, 20+k)
	}
	for _, cycle := range []int{2, stampMapKeep, stampMapKeep + 1} {
		m := NewStampMap(10, 10)
		first := make([][]int, cycle)
		for round := 0; round < 3; round++ {
			for k, tr := range seqs[:cycle] {
				var dst CSR
				stampEval(m, &dst, tr)
				if !csrBitsMatch(&dst, tr.Compress()) {
					t.Fatalf("cycle %d, round %d, sequence %d: values differ from Compress", cycle, round, k)
				}
				if round == 0 {
					first[k] = dst.ColIdx
				} else if reused := sameSlice(dst.ColIdx, first[k]); reused != (cycle <= stampMapKeep) {
					t.Fatalf("cycle %d, round %d, sequence %d: pattern re-adopted %v", cycle, round, k, reused)
				}
			}
		}
		want := cycle
		if cycle > stampMapKeep {
			want = 3 * cycle
		}
		if m.Compiles() != want {
			t.Fatalf("cycle %d: %d compiles, want %d", cycle, m.Compiles(), want)
		}
	}
}

// TestStampMapReplayNoAllocs: a steady-state replay writes by slot into
// the caller's Val without allocating.
func TestStampMapReplayNoAllocs(t *testing.T) {
	skipUnderRace(t)
	tr := randomTriplet(rand.New(rand.NewSource(3)), 30, 120)
	m := NewStampMap(30, 30)
	var dst CSR
	stampEval(m, &dst, tr)
	if allocs := testing.AllocsPerRun(100, func() {
		if !stampPass(m, &dst, tr, false) {
			t.Fatal("replay missed")
		}
	}); allocs != 0 {
		t.Fatalf("replay allocates %v/op, want 0", allocs)
	}
}

// TestPatternChecksAcceptEqualCopies: BlockStencil, SamePattern and the symbolic
// table accept an equal pattern held in other slices — each job of a sweep
// builds its own copy — and refuse a different one.
func TestPatternChecksAcceptEqualCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomTriplet(rng, 20, 80).Compress()
	cp := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr),
		ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)}
	other := randomTriplet(rng, 20, 80).Compress()

	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SamePattern(a) || !f.SamePattern(cp) {
		t.Fatal("SamePattern refused the factored pattern or an equal copy")
	}
	if slices.Equal(other.ColIdx, a.ColIdx) {
		t.Skip("random patterns collided")
	}
	if f.SamePattern(other) {
		t.Fatal("SamePattern accepted a different pattern")
	}
	// A private table, so that what other tests (or an earlier -count run)
	// left in the process-wide one cannot turn the misses into hits.
	tab := newSymbolicTable(symbolicCacheBytes)
	for _, m := range []*CSR{a, cp, other} {
		g, err := tab.factor(m, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(g.aRowPtr, m.RowPtr) || !sameSlice(g.aColIdx, m.ColIdx) || !g.SamePattern(m) {
			t.Fatal("a factorisation does not hold the caller's pattern slices")
		}
	}
	if c := countsOf(tab); c != (tableCounts{1, 2, 0}) {
		t.Fatalf("table counts %+v: the equal copy must hit and the other pattern miss", c)
	}

	// The step stencil keeps its plan and J's pattern for sources whose
	// equal patterns sit in other slices, and recompiles for another one.
	g, c := &CSR{}, &CSR{}
	*g, *c = *a, *a
	st := NewStepStencil(a.Rows, g, c)
	var j CSR
	coef := []float64{1, 2}
	st.Assemble(&j, coef)
	jRowPtr := &j.RowPtr[0]
	*g, *c = *cp, *cp
	if st.Assemble(&j, coef) || &j.RowPtr[0] != jRowPtr {
		t.Fatal("the block stencil recompiled J for an equal pattern in other slices")
	}
	csrBitsEqual(t, &j, tripletSum(cp, cp, 2))
	*g, *c = *a, *other
	if !st.Assemble(&j, coef) || &j.RowPtr[0] == jRowPtr {
		t.Fatal("the block stencil kept J's pattern for a different C pattern")
	}
	csrBitsEqual(t, &j, tripletSum(other, a, 2))
}
