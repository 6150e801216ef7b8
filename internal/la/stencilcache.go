package la

import (
	"slices"
	"sync/atomic"

	"repro/internal/lru"
)

// stencilCacheBytes bounds the stencil table: the capacity of the arrays
// its plans retain, summed. A plan of the paper's 40×30 mixer grid retains
// about 1 MiB; the table holds a dozen such grids, or their line and step
// stencils, beside it.
const stencilCacheBytes = 16 << 20

// stencils is the process-wide table BlockStencil.Prepare loads plans from.
var stencils = newStencilTable(stencilCacheBytes)

// StencilCacheStats reports the process-wide stencil table's counters:
// hits are Prepares that loaded a stored plan of their shape, misses found
// none and compiled one.
func StencilCacheStats() (hits, misses int64) {
	return stencils.hits.Load(), stencils.misses.Load()
}

// stencilKey identifies a plan: the stencil's block size, dimensions,
// source and term counts, and a hash of its terms, group bounds and source
// patterns. Equal keys are confirmed by comparing those themselves.
type stencilKey struct {
	bs, rows, cols, srcs, terms int
	hash                        uint64
}

// stencilTable is a byte-bounded LRU map from stencil shape to compiled
// plan. It is safe for concurrent use.
type stencilTable struct {
	*lru.Cache[stencilKey, *stencilPlan]

	hits, misses atomic.Int64
}

func newStencilTable(budget int) *stencilTable {
	return &stencilTable{Cache: lru.New[stencilKey, *stencilPlan](budget)}
}

// sourcePatterns sorts a stencil's sources by pattern slice: source s
// holds distinct[slot[s]]. A grid's sources share a handful of slices
// (one per compiled stamp sequence of each worker), so each distinct
// slice is hashed and compared once, not once per source.
type sourcePatterns struct {
	slot     []int32
	distinct []srcPattern
}

type srcPattern struct {
	blockPattern
	hash uint64
	// match is the index of the plan pattern this one was last found
	// equal to, or -1.
	match int32
}

// plan returns the plan for b's shape and current source patterns, from
// the table or from a compile it then stores. It also records each
// source's pattern in b.srcPat.
func (t *stencilTable) plan(b *BlockStencil) *stencilPlan {
	sp := sourcePatterns{slot: make([]int32, len(b.src)), distinct: make([]srcPattern, 0, 8)}
	h := b.hash
	for s, m := range b.src {
		if m.Rows != b.bs || m.Cols != b.bs {
			panic(ErrShape)
		}
		p := blockPattern{m.RowPtr, m.ColIdx}
		b.srcPat[s] = p
		k := -1
		if s > 0 {
			k = int(sp.slot[s-1]) // runs of sources share a slice
		}
		if k < 0 || !sp.distinct[k].identical(p) {
			k = slices.IndexFunc(sp.distinct, func(d srcPattern) bool { return d.identical(p) })
		}
		if k < 0 {
			k = len(sp.distinct)
			sp.distinct = append(sp.distinct, srcPattern{p, patternHash(p.rowPtr, p.colIdx), -1})
		}
		sp.slot[s] = int32(k)
		h = hashWord(h, sp.distinct[k].hash)
	}
	key := stencilKey{bs: b.bs, rows: b.rows, cols: b.cols, srcs: len(b.src), terms: len(b.terms), hash: h}
	if pl := t.lookup(key, b, &sp); pl != nil {
		t.hits.Add(1)
		return pl
	}
	t.misses.Add(1)
	pl := b.compile(&sp)
	t.Put(key, pl, pl.bytes())
	return pl
}

// lookup returns the stored plan of b's shape under key, marking it most
// recently used, or nil.
func (t *stencilTable) lookup(key stencilKey, b *BlockStencil, sp *sourcePatterns) *stencilPlan {
	pl, ok := t.Get(key)
	if !ok || !slices.Equal(pl.first, b.first) || !slices.Equal(pl.terms, b.terms) {
		return nil // absent, or a hash collision
	}
	for s, k := range sp.slot {
		d, j := &sp.distinct[k], pl.srcPat[s]
		if d.match != j {
			if !pl.pats[j].equal(d.blockPattern) {
				return nil
			}
			d.match = j
		}
	}
	return pl
}

// identical reports whether p is q's pattern in the same slices.
func (q blockPattern) identical(p blockPattern) bool {
	return sameSlice(q.rowPtr, p.rowPtr) && sameSlice(q.colIdx, p.colIdx)
}

// equal reports whether p and q are the same pattern.
func (q blockPattern) equal(p blockPattern) bool {
	return samePattern(q.rowPtr, q.colIdx, p.rowPtr, p.colIdx)
}

// bytes is what a table entry holding pl retains: the capacity of its
// arrays.
func (pl *stencilPlan) bytes() int {
	n := 16*cap(pl.terms) + 8*(cap(pl.rowPtr)+cap(pl.colIdx)) +
		4*(cap(pl.first)+cap(pl.srcPat)+cap(pl.prog)+cap(pl.start)) + cap(pl.fill)
	for _, p := range pl.pats {
		n += 8 * (cap(p.rowPtr) + cap(p.colIdx))
	}
	return n
}
