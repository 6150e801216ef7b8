package la

import (
	"fmt"
	"slices"
)

// BlockTerm is one term of a block-stencil Jacobian: coef[Coef]·src[Src]
// added into destination block (Row, Col).
type BlockTerm struct {
	Row, Col, Src, Coef int32
}

// Term returns the term coef[k]·src[s] at destination block (row, col).
func Term(row, col, s, k int) BlockTerm {
	return BlockTerm{Row: int32(row), Col: int32(col), Src: int32(s), Coef: int32(k)}
}

// BlockStencil is a compiled block-stencil Jacobian: a matrix assembled
// from bs×bs source blocks, each placed at a destination block and scaled
// by a coefficient. The discretised MPDE has this shape — every grid point
// contributes its G block plus the difference stencil's coefficient-
// weighted C blocks of its neighbours — and so does an implicit time step,
// J = G + s·C as a single block.
//
// The caller describes the Jacobian once as an ordered list of terms, in
// one or more groups. Every group shares one destination pattern, the union
// of all of them, and within a group the terms come in non-decreasing
// destination block row. Compiling records, for every entry of every
// term's source, the destination value slot it lands in (SPICE3's
// setup-time matrix pointers, one level above StampMap). A replay starts
// every slot of its block rows at -0.0, the exact identity of IEEE
// addition, and adds coef·value term by term in list order: a CSR source
// never writes one slot twice, so each slot sums its terms in that order,
// bit-identical to a Triplet fed the same products in the same order. No
// replay can miss the pattern.
//
// Prepare decides before a replay whether the plan still fits: it compares
// each source's pattern with the one prepared for, by slice identity first
// (StampMap hands out one pattern until its devices change their stamps).
// A plan depends only on the stencil's shape — block size, dimensions,
// terms and every source's pattern — so plans live in a process-wide,
// byte-bounded table, and a stencil of a shape compiled before loads that
// plan instead of compiling. Plans are immutable: a changed source pattern
// moves the stencil to another plan with its own pattern slices, so a
// matrix handed out earlier keeps a valid pattern and SparseLU may
// recognise an unchanged one by identity.
type BlockStencil struct {
	bs, rows, cols int
	src            []*CSR
	terms          []BlockTerm // every group's terms, group after group
	// first[g·rows+r] indexes group g's first term at block row r or later;
	// first[len(first)-1] is len(terms).
	first []int32
	hash  uint64 // of terms and first

	plan   *stencilPlan   // nil until the first Prepare
	srcPat []blockPattern // each source's pattern when plan was checked
}

// stencilPlan is a compiled block stencil. It is immutable once built and
// shared, through the process-wide table, by every stencil of its shape.
type stencilPlan struct {
	// The shape compiled for, beyond its table key's dimensions: the terms
	// and group bounds (the compiling stencil's own, never written after
	// NewBlockStencil), and source s's pattern as pats[srcPat[s]], private
	// copies of the distinct patterns.
	terms  []BlockTerm
	first  []int32
	pats   []blockPattern
	srcPat []int32

	// The union pattern, and the program: prog holds every term in list
	// order as Src, Coef, n, its kind and its n slots, a group's first
	// write to a slot as ^slot; start maps first onto prog.
	rowPtr, colIdx []int
	prog, start    []int32
	fill           []bool // group g leaves some slot unwritten
}

// A term's kind: every entry its group's first write to its slot, none,
// or some.
const (
	termStore int32 = iota
	termAdd
	termMixed
)

type blockPattern struct {
	rowPtr, colIdx []int
}

// NewBlockStencil returns an uncompiled stencil for a destination of
// rows×cols blocks of size bs, summing groups[g]'s terms over the sources
// src, each bs×bs. The stencil keeps src and reads the sources' current
// patterns and values at every Prepare and Replay.
func NewBlockStencil(bs, rows, cols int, src []*CSR, groups [][]BlockTerm) *BlockStencil {
	nTerms := 0
	for _, terms := range groups {
		nTerms += len(terms)
	}
	b := &BlockStencil{bs: bs, rows: rows, cols: cols, src: src,
		terms:  make([]BlockTerm, 0, nTerms),
		first:  make([]int32, 0, len(groups)*rows+1),
		srcPat: make([]blockPattern, len(src))}
	h := uint64(fnvOffset)
	for _, terms := range groups {
		r, prev := 0, int32(0)
		for _, t := range terms {
			if t.Row < prev || int(t.Row) >= rows || t.Col < 0 || int(t.Col) >= cols ||
				t.Src < 0 || int(t.Src) >= len(src) || t.Coef < 0 {
				panic(fmt.Sprintf("la: block term %+v out of order or range (%d×%d blocks, %d sources)", t, rows, cols, len(src)))
			}
			prev = t.Row
			for ; r <= int(t.Row); r++ {
				b.first = append(b.first, int32(len(b.terms)))
			}
			b.terms = append(b.terms, t)
			h = hashWord(hashWord(h, uint64(t.Row)<<32|uint64(t.Col)), uint64(t.Src)<<32|uint64(t.Coef))
		}
		for ; r < rows; r++ {
			b.first = append(b.first, int32(len(b.terms)))
		}
	}
	b.first = append(b.first, int32(len(b.terms)))
	for _, f := range b.first {
		h = hashWord(h, uint64(f))
	}
	b.hash = h
	return b
}

// NewStepStencil returns the one-block stencil J = coef[0]·G + coef[1]·C
// of an implicit integration step over the n×n device Jacobians g and c,
// G's terms first.
func NewStepStencil(n int, g, c *CSR) *BlockStencil {
	return NewBlockStencil(n, 1, 1, []*CSR{g, c}, [][]BlockTerm{{{Src: 0, Coef: 0}, {Src: 1, Coef: 1}}})
}

// Prepare readies the plan for the sources' current patterns and reports
// whether that took a new plan: on first use, and whenever a source's
// pattern differs from the one prepared for. The plan comes from the
// process-wide table, or from a compile on a table miss. After a new plan,
// matrices replayed into must be re-Bound.
//
//mpde:hotpath
func (b *BlockStencil) Prepare() bool {
	return b.prepareIn(stencils)
}

func (b *BlockStencil) prepareIn(tab *stencilTable) bool {
	if b.current() {
		return false
	}
	b.plan = tab.plan(b)
	return true
}

// current reports whether every source still has the pattern of the plan,
// by slice identity or, failing that, by content.
func (b *BlockStencil) current() bool {
	if b.plan == nil {
		return false
	}
	for s, m := range b.src {
		p := &b.srcPat[s]
		if (!sameSlice(m.RowPtr, p.rowPtr) || !sameSlice(m.ColIdx, p.colIdx)) && !b.adopt(s) {
			return false
		}
	}
	return true
}

// adopt reports whether source s holds its prepared pattern in other
// slices, and if so holds them, which makes the next check O(1).
func (b *BlockStencil) adopt(s int) bool {
	m, p := b.src[s], &b.srcPat[s]
	if !slices.Equal(m.RowPtr, p.rowPtr) || !slices.Equal(m.ColIdx, p.colIdx) {
		return false
	}
	p.rowPtr, p.colIdx = m.RowPtr, m.ColIdx
	return true
}

// compile builds a plan for the sources' patterns, sp, into fresh slices:
// the distinct patterns' private copies, and the union pattern and every
// term's slot list, one destination row at a time.
func (b *BlockStencil) compile(sp *sourcePatterns) *stencilPlan {
	bs := b.bs
	pl := &stencilPlan{terms: b.terms, first: b.first, srcPat: make([]int32, len(b.src))}
	var hashes []uint64 // of pl.pats
	for k := range sp.distinct {
		d := &sp.distinct[k]
		d.match = -1
		for j, h := range hashes {
			if h == d.hash && pl.pats[j].equal(d.blockPattern) {
				d.match = int32(j)
				break
			}
		}
		if d.match < 0 {
			d.match = int32(len(pl.pats))
			pl.pats = append(pl.pats, blockPattern{slices.Clone(d.rowPtr), slices.Clone(d.colIdx)})
			hashes = append(hashes, d.hash)
		}
	}
	for s, k := range sp.slot {
		pl.srcPat[s] = sp.distinct[k].match
	}
	// Term t sits at prog[at[t]:at[t+1]].
	at := make([]int32, len(b.terms)+1)
	for t, term := range b.terms {
		at[t+1] = at[t] + 4 + int32(len(b.src[term.Src].ColIdx))
	}
	nProg := int(at[len(b.terms)])
	pl.prog = make([]int32, nProg)
	pl.start = make([]int32, len(b.first))
	for i, t := range b.first {
		pl.start[i] = at[t]
	}
	nSlot := nProg - 4*len(b.terms)
	stores := make([]int32, len(b.terms)) // first writes per term

	// byRow lists the term indices of every group by destination block
	// row: block row r's terms are byRow[rowStart[r]:rowStart[r+1]].
	rowStart := make([]int32, b.rows+1)
	for _, t := range b.terms {
		rowStart[t.Row+1]++
	}
	for r := 0; r < b.rows; r++ {
		rowStart[r+1] += rowStart[r]
	}
	byRow := make([]int32, len(b.terms))
	next := slices.Clone(rowStart[:b.rows])
	for k, t := range b.terms {
		byRow[next[t.Row]] = int32(k)
		next[t.Row]++
	}

	// group[t] is term t's group. In each destination row, the entry with
	// which a group first writes a slot is stored as ^slot and assigns; a
	// group that leaves some slot of a row unwritten is filled first.
	groups := (len(b.first) - 1) / b.rows
	group := make([]int32, len(b.terms))
	for g := 0; g < groups; g++ {
		for t := b.first[g*b.rows]; t < b.first[(g+1)*b.rows]; t++ {
			group[t] = int32(g)
		}
	}
	pl.fill = make([]bool, groups)
	covered := make([]int, groups)
	var owner []int32

	// The groups share one pattern: start it at a group's mean share of
	// the slots.
	rowPtr := make([]int, b.rows*bs+1)
	colIdx := make([]int, 0, nSlot/max(groups, 1))
	var cols []int
	for r := 0; r < b.rows; r++ {
		terms := byRow[rowStart[r]:rowStart[r+1]]
		for li := 0; li < bs; li++ {
			cols = cols[:0]
			for _, t := range terms {
				m, base := b.src[b.terms[t].Src], int(b.terms[t].Col)*bs
				for _, c := range m.ColIdx[m.RowPtr[li]:m.RowPtr[li+1]] {
					cols = append(cols, base+c)
				}
			}
			slices.Sort(cols)
			cols = slices.Compact(cols)
			start := len(colIdx)
			colIdx = append(colIdx, cols...)
			rowPtr[r*bs+li+1] = len(colIdx)
			owner = slices.Grow(owner[:0], len(cols))[:len(cols)]
			for pos := range owner {
				owner[pos] = -1
			}
			for _, t := range terms {
				m, base, g := b.src[b.terms[t].Src], int(b.terms[t].Col)*bs, group[t]
				for k := m.RowPtr[li]; k < m.RowPtr[li+1]; k++ {
					pos, _ := slices.BinarySearch(cols, base+m.ColIdx[k])
					slot := int32(start + pos)
					if owner[pos] != g { // byRow lists a row's terms group by group
						owner[pos] = g
						covered[g]++
						stores[t]++
						slot = ^slot
					}
					pl.prog[int(at[t])+4+k] = slot
				}
			}
			for g, c := range covered {
				pl.fill[g] = pl.fill[g] || c < len(cols)
				covered[g] = 0
			}
		}
	}
	for t, term := range b.terms {
		n, kind := at[t+1]-at[t]-4, termMixed
		switch stores[t] {
		case n:
			kind = termStore
		case 0:
			kind = termAdd
		}
		h := pl.prog[at[t]:]
		h[0], h[1], h[2], h[3] = term.Src, term.Coef, n, kind
	}
	pl.rowPtr, pl.colIdx = rowPtr, colIdx
	return pl
}

// Bind points dst at the plan's pattern with a Val of its length, grown
// only when its capacity is short.
func (b *BlockStencil) Bind(dst *CSR) {
	pl := b.plan
	dst.Rows, dst.Cols = b.rows*b.bs, b.cols*b.bs
	dst.RowPtr, dst.ColIdx = pl.rowPtr, pl.colIdx
	dst.Val = growFloats(dst.Val, len(pl.colIdx))
}

// Replay writes group g's block rows [lo, hi) into val, a value array over
// the plan's pattern: their slots start at -0.0 and each term adds
// coef[Coef]·src[Src] in list order. The first term to reach a slot stores
// its product, which is -0.0 plus it bit for bit, so only a group that
// leaves slots unwritten pays for the fill. Replays of disjoint block-row
// ranges write disjoint slices of val and may run concurrently.
//
//mpde:hotpath
func (b *BlockStencil) Replay(val, coef []float64, g, lo, hi int) {
	pl := b.plan
	if pl.fill[g] {
		Fill(val[pl.rowPtr[lo*b.bs]:pl.rowPtr[hi*b.bs]], negZero)
	}
	at := g * b.rows
	for p := pl.prog[pl.start[at+lo]:pl.start[at+hi]]; len(p) > 0; {
		n := 4 + int(p[2])
		v, slots, c := b.src[p[0]].Val, p[4:n], coef[p[1]]
		switch p[3] {
		case termStore:
			storeTerm(val, v, slots, c)
		case termAdd:
			addTerm(val, v, slots, c)
		default:
			mixedTerm(val, v, slots, c)
		}
		p = p[n:]
	}
}

// storeTerm, addTerm and mixedTerm write c·v[k] at slots[k], storing into
// a slot held as ^slot and adding into the others. The explicit conversion
// rounds c·v on its own, as a Triplet fed the product does, so no fused
// multiply-add can change the sum's bits.
//
//mpde:hotpath
func storeTerm(val, v []float64, slots []int32, c float64) {
	v = v[:len(slots)]
	for k, s := range slots {
		val[^s] = float64(c * v[k])
	}
}

//mpde:hotpath
func addTerm(val, v []float64, slots []int32, c float64) {
	v = v[:len(slots)]
	for k, s := range slots {
		val[s] += float64(c * v[k])
	}
}

//mpde:hotpath
func mixedTerm(val, v []float64, slots []int32, c float64) {
	v = v[:len(slots)]
	for k, s := range slots {
		if x := float64(c * v[k]); s < 0 {
			val[^s] = x
		} else {
			val[s] += x
		}
	}
}

// Assemble is Prepare, Bind on a compile, and a replay of a one-group
// stencil's every block row into dst. It reports whether it compiled.
//
//mpde:hotpath
func (b *BlockStencil) Assemble(dst *CSR, coef []float64) bool {
	compiled := b.Prepare()
	if compiled {
		b.Bind(dst)
	}
	b.Replay(dst.Val, coef, 0, 0, b.rows)
	return compiled
}
