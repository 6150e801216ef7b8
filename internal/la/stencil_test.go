package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stencilTriplet is the reference for one group of a stencil: a Triplet fed
// coef·value for every entry of every term, term after term in list order.
func stencilTriplet(bs, rows, cols int, src []*CSR, terms []BlockTerm, coef []float64) *Triplet {
	tr := NewTriplet(rows*bs, cols*bs)
	for _, tm := range terms {
		m, c := src[tm.Src], coef[tm.Coef]
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				tr.Append(int(tm.Row)*bs+i, int(tm.Col)*bs+m.ColIdx[k], float64(c*m.Val[k]))
			}
		}
	}
	return tr
}

// replayMatches reports whether the values of got, replayed over a union
// pattern, equal want bit for bit, every slot want lacks holding -0.0.
func replayMatches(got, want *CSR) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for i := 0; i < want.Rows; i++ {
		k := want.RowPtr[i]
		for q := got.RowPtr[i]; q < got.RowPtr[i+1]; q++ {
			w := negZero
			if k < want.RowPtr[i+1] && want.ColIdx[k] == got.ColIdx[q] {
				w = want.Val[k]
				k++
			}
			if math.Float64bits(got.Val[q]) != math.Float64bits(w) {
				return false
			}
		}
		if k != want.RowPtr[i+1] {
			return false // an entry outside the pattern
		}
	}
	return true
}

// TestBlockStencilMatchesTriplet replays a two-group stencil with repeated
// destination blocks over several value and coefficient sets, whole and in
// block-row ranges, and pins every group to its Triplet bit for bit.
func TestBlockStencilMatchesTriplet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const bs, rows, cols = 5, 5, 4
	src := make([]*CSR, 6)
	for s := range src {
		src[s] = randomTriplet(rng, bs, 8).Compress()
	}
	groups := make([][]BlockTerm, 2)
	for g := range groups {
		for r := 0; r < rows; r++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				groups[g] = append(groups[g], BlockTerm{Row: int32(r), Col: int32(rng.Intn(cols)),
					Src: int32(rng.Intn(len(src))), Coef: int32(rng.Intn(3))})
			}
		}
	}
	st := NewBlockStencil(bs, rows, cols, src, groups)
	var m CSR
	for pass := 0; pass < 3; pass++ {
		if st.Prepare() != (pass == 0) {
			t.Fatalf("pass %d: Prepare compiled %v", pass, pass != 0)
		}
		if pass == 0 {
			st.Bind(&m)
		}
		coef := []float64{rng.NormFloat64(), 1 / 3.0, -2}
		for _, s := range src {
			for k := range s.Val {
				s.Val[k] = rng.NormFloat64()
			}
		}
		for g, terms := range groups {
			want := stencilTriplet(bs, rows, cols, src, terms, coef).Compress()
			st.Replay(m.Val, coef, g, 0, rows)
			if !replayMatches(&m, want) {
				t.Fatalf("pass %d group %d: replay differs from the Triplet", pass, g)
			}
			Fill(m.Val, math.NaN())
			st.Replay(m.Val, coef, g, 0, 2)
			st.Replay(m.Val, coef, g, 2, rows)
			if !replayMatches(&m, want) {
				t.Fatalf("pass %d group %d: block-row range replays differ from the Triplet", pass, g)
			}
		}
	}
}

// TestBlockStencilPlacesBlock places a local pattern at a block offset.
func TestBlockStencilPlacesBlock(t *testing.T) {
	local := NewTriplet(2, 2)
	local.Append(0, 0, 1)
	local.Append(1, 0, 2)
	st := NewBlockStencil(2, 3, 3, []*CSR{local.Compress()}, [][]BlockTerm{{{Row: 1, Col: 2}}})
	var m CSR
	st.Assemble(&m, []float64{3})
	if m.Rows != 6 || m.Cols != 6 || m.NNZ() != 2 || m.At(2, 4) != 3 || m.At(3, 4) != 6 {
		t.Fatalf("block placed wrong: %dx%d nnz=%d", m.Rows, m.Cols, m.NNZ())
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

// TestBlockStencilStepMatchesTriplet pins the one-block step Jacobian
// J = G + s·C to the Triplet sum bit for bit — shared, G-only and C-only
// slots, signed zeros included — across scale changes, value-only
// re-evaluations and a pattern change.
func TestBlockStencilStepMatchesTriplet(t *testing.T) {
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
	st := NewStepStencil(n, g, c)
	var j CSR
	st.Assemble(&j, []float64{1, 1e9})
	csrBitsEqual(t, &j, tripletSum(c, g, 1e9))
	rowPtr := &j.RowPtr[0]
	for _, s := range []float64{3.7e-3, 1 / 7.0, -2} {
		for k := range c.Val {
			c.Val[k] = rng.NormFloat64()
		}
		for k := range g.Val {
			g.Val[k] = rng.NormFloat64()
		}
		if st.Assemble(&j, []float64{1, s}) {
			t.Fatal("unchanged patterns recompiled the plan")
		}
		csrBitsEqual(t, &j, tripletSum(c, g, s))
		if &j.RowPtr[0] != rowPtr {
			t.Fatal("unchanged patterns rebuilt J's pattern storage")
		}
	}
	// A pattern change recompiles.
	*c = *sparse(70)
	if !st.Assemble(&j, []float64{1, 0.5}) {
		t.Fatal("a changed C pattern kept the plan")
	}
	csrBitsEqual(t, &j, tripletSum(c, g, 0.5))
}

func TestBlockStencilReplayNoAllocs(t *testing.T) {
	skipUnderRace(t)
	fam := batchFamily(100, 2, 41)
	st := NewStepStencil(100, fam[0], fam[1])
	var j CSR
	coef := []float64{1, 1e9}
	st.Assemble(&j, coef) // warm-up compiles the plan
	if allocs := testing.AllocsPerRun(100, func() { st.Assemble(&j, coef) }); allocs != 0 {
		t.Fatalf("BlockStencil.Assemble allocates %v/op, want 0", allocs)
	}
}

// fuzzValue decodes one value code: ±0, ±subnormals, and small normals of
// either sign.
func fuzzValue(c byte) float64 {
	switch c % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(c/8) * math.SmallestNonzeroFloat64
	case 3:
		return -float64(c/8+1) * math.SmallestNonzeroFloat64
	default:
		return math.Ldexp(float64(int8(c)), int(c%5)-2) / 3
	}
}

// decodeStencil turns fuzz bytes into a block stencil: byte 0 picks the
// block size, bytes 1–2 the destination's block rows and columns, byte 3
// the source and group counts, then two pattern bytes per source, then
// 5-byte terms (group, row, column, source, coefficient).
func decodeStencil(data []byte) (bs, rows, cols int, src []*CSR, groups [][]BlockTerm) {
	if len(data) < 4 {
		return
	}
	bs, rows, cols = 1+int(data[0])%3, 1+int(data[1])%3, 1+int(data[2])%3
	nSrc, nGroup := 1+int(data[3])%4, 1+int(data[3]/4)%3
	data = data[4:]
	for s := 0; s < nSrc; s++ {
		var mask uint16
		if len(data) >= 2 {
			mask, data = uint16(data[0])|uint16(data[1])<<8, data[2:]
		}
		m := &CSR{Rows: bs, Cols: bs, RowPtr: make([]int, bs+1)}
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				if mask&(1<<(i*bs+j)) != 0 {
					m.ColIdx = append(m.ColIdx, j)
				}
			}
			m.RowPtr[i+1] = len(m.ColIdx)
		}
		m.Val = make([]float64, len(m.ColIdx))
		src = append(src, m)
	}
	groups = make([][]BlockTerm, nGroup)
	for n := 0; len(data) >= 5 && n < 48; n, data = n+1, data[5:] {
		g := int(data[0]) % nGroup
		groups[g] = append(groups[g], BlockTerm{Row: int32(int(data[1]) % rows), Col: int32(int(data[2]) % cols),
			Src: int32(int(data[3]) % nSrc), Coef: int32(int(data[4]) % 8)})
	}
	for _, terms := range groups {
		slices.SortStableFunc(terms, func(a, b BlockTerm) int { return int(a.Row - b.Row) })
	}
	return
}

// FuzzBlockStencil pins compiled block stencils to a Triplet fed the same
// coef·value terms in the same order, bit for bit: repeated destination
// blocks, ±0, negative and subnormal coefficients and values, two replays
// with fresh values, a plan loaded from the table that replays as a fresh
// compile does, and a recompile after a source changes its pattern, which
// must leave the pattern handed out before it as it was.
func FuzzBlockStencil(f *testing.F) {
	f.Add([]byte{1, 1, 1, 5, 0xff, 0x01, 0x11, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 2})
	f.Add([]byte{2, 2, 2, 11, 0x5a, 0x01, 0xff, 0xff, 0x10, 0x00, 0, 1, 1, 0, 3, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		bs, rows, cols, src, groups := decodeStencil(data)
		if src == nil {
			return
		}
		st := NewBlockStencil(bs, rows, cols, src, groups)
		var m CSR
		for pass := 0; pass < 2; pass++ {
			coef := make([]float64, 8)
			for k := range coef {
				coef[k] = fuzzValue(data[(k+pass)%len(data)] + byte(pass))
			}
			for s, sm := range src {
				for k := range sm.Val {
					sm.Val[k] = fuzzValue(data[(s+k+3*pass)%len(data)] ^ byte(k))
				}
			}
			if st.Prepare() != (pass == 0) {
				t.Fatalf("pass %d: Prepare compiled %v", pass, pass == 1)
			}
			if pass == 0 {
				st.Bind(&m)
			}
			for g, terms := range groups {
				st.Replay(m.Val, coef, g, 0, rows)
				if want := stencilTriplet(bs, rows, cols, src, terms, coef).Compress(); !replayMatches(&m, want) {
					t.Fatalf("pass %d group %d: replay %+v differs from the Triplet %+v", pass, g, m, *want)
				}
			}
		}
		// A stencil of the same shape over copies of the sources loads the
		// plan a fresh compile stored, and replays it bit for bit alike.
		tab := newStencilTable(stencilCacheBytes)
		fresh := NewBlockStencil(bs, rows, cols, src, groups)
		loaded := NewBlockStencil(bs, rows, cols, cloneSources(src), cloneGroups(groups))
		fresh.prepareIn(tab)
		loaded.prepareIn(tab)
		if c := stencilCountsOf(tab); c != (stencilCounts{1, 1}) {
			t.Fatalf("a stencil of a stored shape: table counts %+v, want 1 hit and 1 miss", c)
		}
		var mf, ml CSR
		fresh.Bind(&mf)
		loaded.Bind(&ml)
		coef := make([]float64, 8)
		for k := range coef {
			coef[k] = fuzzValue(data[(k+5)%len(data)] ^ 0x5a)
		}
		for g := range groups {
			fresh.Replay(mf.Val, coef, g, 0, rows)
			loaded.Replay(ml.Val, coef, g, 0, rows)
			if !replayMatches(&ml, &mf) {
				t.Fatalf("group %d: the loaded plan's replay differs from a fresh compile's", g)
			}
		}

		// Source 0 takes a one-entry pattern in fresh slices: a changed
		// pattern recompiles, an equal one keeps the plan.
		rowPtr, colIdx := slices.Clone(m.RowPtr), slices.Clone(m.ColIdx)
		old := m
		s := src[0]
		prevRowPtr, prevColIdx := s.RowPtr, s.ColIdx
		s.RowPtr, s.ColIdx, s.Val = make([]int, bs+1), []int{0}, []float64{fuzzValue(data[0])}
		for i := range s.RowPtr[1:] {
			s.RowPtr[i+1] = 1
		}
		changed := !slices.Equal(s.RowPtr, prevRowPtr) || !slices.Equal(s.ColIdx, prevColIdx)
		if st.Prepare() != changed {
			t.Fatalf("source pattern changed %v, but Prepare compiled %v", changed, !changed)
		}
		st.Bind(&m)
		coef = []float64{1, -1, 2, math.Copysign(0, -1), 0.5, 3, -0.25, math.SmallestNonzeroFloat64}
		for g, terms := range groups {
			st.Replay(m.Val, coef, g, 0, rows)
			if want := stencilTriplet(bs, rows, cols, src, terms, coef).Compress(); !replayMatches(&m, want) {
				t.Fatalf("recompiled group %d: replay differs from the Triplet", g)
			}
		}
		if !slices.Equal(old.RowPtr, rowPtr) || !slices.Equal(old.ColIdx, colIdx) {
			t.Fatal("a pattern handed out before a recompile changed")
		}
	})
}
