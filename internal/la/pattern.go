package la

import "sort"

// PatternBuilder accumulates the structural nonzero pattern of a sparse
// matrix — positions only, no values. Build freezes the pattern into a CSR
// with sorted, duplicate-free columns and zeroed values, ready for repeated
// in-place numeric stamping through a RowStamper. This is the "symbolic
// assembly" half of the split that lets the MPDE Newton loop compute the
// Jacobian's sparsity once per solve (it is fixed by the difference stencil
// and the device topology) and only restamp values each iteration.
type PatternBuilder struct {
	rows, cols int
	i, j       []int32
}

// NewPatternBuilder returns an empty structural builder for an r×c matrix.
func NewPatternBuilder(r, c int) *PatternBuilder {
	return &PatternBuilder{rows: r, cols: c}
}

// Add records a structural entry at (i, j). Duplicates are cheap and merged
// by Build.
func (b *PatternBuilder) Add(i, j int) {
	b.i = append(b.i, int32(i))
	b.j = append(b.j, int32(j))
}

// AddBlock records every entry of m's pattern shifted to (rowBase, colBase).
func (b *PatternBuilder) AddBlock(m *CSR, rowBase, colBase int) {
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			b.Add(rowBase+i, colBase+m.ColIdx[k])
		}
	}
}

// Build compresses the recorded positions into a CSR with sorted,
// duplicate-free columns per row and all values zero.
func (b *PatternBuilder) Build() *CSR {
	rowCount := make([]int, b.rows+1)
	for _, i := range b.i {
		rowCount[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	colIdx := make([]int, len(b.j))
	next := make([]int, b.rows)
	copy(next, rowCount[:b.rows])
	for k, i := range b.i {
		colIdx[next[i]] = int(b.j[k])
		next[i]++
	}
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	for i := 0; i < b.rows; i++ {
		seg := colIdx[rowCount[i]:rowCount[i+1]]
		sort.Ints(seg)
		prev := -1
		for _, c := range seg {
			if c == prev {
				continue
			}
			m.ColIdx = append(m.ColIdx, c)
			prev = c
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	m.Val = make([]float64, len(m.ColIdx))
	return m
}

// RowStamper adds values into a fixed-pattern CSR row by row in O(1) per
// entry via a column→slot scatter map. One stamper serves one goroutine;
// concurrent stampers over disjoint row ranges of the same matrix are safe
// because they write disjoint slices of Val.
type RowStamper struct {
	m    *CSR
	slot []int32 // column → Val index, valid when mark matches
	mark []int32 // column → generation of the loaded row
	gen  int32
}

// NewRowStamper binds a stamper to m. The pattern (RowPtr/ColIdx) of m must
// not change while the stamper is in use; values may be rewritten freely.
func NewRowStamper(m *CSR) *RowStamper {
	return &RowStamper{
		m:    m,
		slot: make([]int32, m.Cols),
		mark: make([]int32, m.Cols),
	}
}

// ZeroRows clears the stored values of rows [lo, hi).
//
//mpde:hotpath
func (s *RowStamper) ZeroRows(lo, hi int) {
	Fill(s.m.Val[s.m.RowPtr[lo]:s.m.RowPtr[hi]], 0)
}

// SetRow loads row i's scatter map; subsequent Add calls target row i.
//
//mpde:hotpath
func (s *RowStamper) SetRow(i int) {
	s.gen++
	if s.gen < 0 { // generation wrap: rebuild marks from scratch
		Fill32(s.mark, 0)
		s.gen = 1
	}
	m := s.m
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		c := m.ColIdx[k]
		s.slot[c] = int32(k)
		s.mark[c] = s.gen
	}
}

// Add accumulates v at (current row, j). It reports false — leaving the
// matrix unchanged — when (row, j) is not part of the pattern, which signals
// the caller to rebuild its symbolic pattern.
//
//mpde:hotpath
func (s *RowStamper) Add(j int, v float64) bool {
	if s.mark[j] != s.gen {
		return false
	}
	s.m.Val[s.slot[j]] += v
	return true
}

// Fill32 sets every element of x to v.
func Fill32(x []int32, v int32) {
	for i := range x {
		x[i] = v
	}
}

// Combiner forms J = s·C + G from two same-shape CSR matrices into a CSR it
// owns: the Jacobian of an implicit integration step (s = 1/h for backward
// Euler, the BDF leading coefficient in general). The union pattern and the
// entry→slot maps are built on first use and rebuilt only when C's or G's
// pattern changes, so a time march whose device Jacobians keep their
// pattern stamps J in O(nnz) per call without allocating — and hands the
// Newton loop a matrix whose unchanged pattern lets its LU refactorise.
//
// G is written before s·C is added, the order in which a Triplet holding G's
// entries followed by C's sums duplicates, so J is bit-identical to that
// Triplet's compression.
type Combiner struct {
	j CSR
	// The C and G patterns the slot maps were built for. Patterns are never
	// rewritten in place (see SamePattern), so these alias the callers'.
	cRowPtr, cColIdx []int
	gRowPtr, gColIdx []int
	// cSlot/gSlot map entry k of C/G to its index in j.Val; cShared marks
	// the C entries whose slot G also writes.
	cSlot, gSlot []int
	cShared      []bool
}

// Combine returns s·C + G. The result is owned by the Combiner and
// overwritten by the next call; its pattern slices are kept while the
// inputs' patterns are unchanged.
//
//mpde:hotpath
func (b *Combiner) Combine(c, g *CSR, s float64) *CSR {
	if c.Cols != b.j.Cols || g.Cols != b.j.Cols ||
		!samePattern(c.RowPtr, c.ColIdx, b.cRowPtr, b.cColIdx) ||
		!samePattern(g.RowPtr, g.ColIdx, b.gRowPtr, b.gColIdx) {
		b.rebuild(c, g)
	}
	// An equal pattern in other slices keeps the maps; holding the new
	// slices makes the next call's check O(1).
	b.cRowPtr, b.cColIdx = c.RowPtr, c.ColIdx
	b.gRowPtr, b.gColIdx = g.RowPtr, g.ColIdx
	v := b.j.Val
	for k, gv := range g.Val {
		v[b.gSlot[k]] = gv
	}
	for k, cv := range c.Val {
		// The explicit conversion rounds s·cv on its own, as the Triplet
		// path does, so no fused multiply-add can change J's bits.
		if b.cShared[k] {
			v[b.cSlot[k]] += float64(s * cv)
		} else {
			v[b.cSlot[k]] = float64(s * cv)
		}
	}
	return &b.j
}

// rebuild merges C's and G's row patterns (each sorted and duplicate-free)
// into a freshly allocated J pattern — one handed out earlier is never
// rewritten — and records where every entry of each lands.
func (b *Combiner) rebuild(c, g *CSR) {
	if c.Rows != g.Rows || c.Cols != g.Cols {
		panic(ErrShape)
	}
	b.cSlot = growInts(b.cSlot, len(c.ColIdx))
	b.gSlot = growInts(b.gSlot, len(g.ColIdx))
	if cap(b.cShared) < len(c.ColIdx) {
		b.cShared = make([]bool, len(c.ColIdx))
	}
	b.cShared = b.cShared[:len(c.ColIdx)]
	j := &b.j
	j.Rows, j.Cols = g.Rows, g.Cols
	j.RowPtr = make([]int, g.Rows+1)
	j.ColIdx = make([]int, 0, len(g.ColIdx)+len(c.ColIdx))
	for i := 0; i < g.Rows; i++ {
		p, pEnd := g.RowPtr[i], g.RowPtr[i+1]
		q, qEnd := c.RowPtr[i], c.RowPtr[i+1]
		for p < pEnd || q < qEnd {
			slot := len(j.ColIdx)
			switch {
			case q == qEnd || (p < pEnd && g.ColIdx[p] < c.ColIdx[q]):
				j.ColIdx = append(j.ColIdx, g.ColIdx[p])
				b.gSlot[p] = slot
				p++
			case p == pEnd || c.ColIdx[q] < g.ColIdx[p]:
				j.ColIdx = append(j.ColIdx, c.ColIdx[q])
				b.cSlot[q], b.cShared[q] = slot, false
				q++
			default: // same column in both
				j.ColIdx = append(j.ColIdx, g.ColIdx[p])
				b.gSlot[p] = slot
				b.cSlot[q], b.cShared[q] = slot, true
				p++
				q++
			}
		}
		j.RowPtr[i+1] = len(j.ColIdx)
	}
	j.Val = growFloats(j.Val, len(j.ColIdx))
}
