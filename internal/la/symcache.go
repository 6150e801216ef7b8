package la

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/lru"
)

// symbolicCacheBytes bounds the symbolic table: the capacity of the index
// arrays its entries retain, summed. It holds the paper's 40×30 mixer analysis with
// room for a handful of smaller grids beside it.
const symbolicCacheBytes = 64 << 20

// symbolic is the process-wide table SparseLUFactor reuses analyses from.
var symbolic = newSymbolicTable(symbolicCacheBytes)

// SymbolicCacheStats reports the process-wide symbolic table's counters:
// hits are factorisations served by a pivot-verified refactor of a stored
// analysis, misses found no analysis for the pattern and tolerance, and
// rejections found one whose recorded pivots the new values would not
// pick. Misses and rejections both ran a fresh factorisation.
func SymbolicCacheStats() (hits, misses, rejections int64) {
	return symbolic.stats()
}

// symbolicKey identifies an analysis: the dimension, the normalised pivot
// tolerance and a hash of the pattern. Equal keys are confirmed by
// comparing the patterns themselves.
type symbolicKey struct {
	n    int
	tol  uint64 // math.Float64bits of the normalised tolerance
	hash uint64
}

// symbolicTable is a byte-bounded LRU map from pattern to analysis: a
// SparseLU without value arrays or scratch, whose aRowPtr/aColIdx are the
// table's own copy of the pattern. Stored analyses are immutable; clones
// share every array they hold. It is safe for concurrent use.
type symbolicTable struct {
	*lru.Cache[symbolicKey, *SparseLU]

	hits, misses, rejections atomic.Int64
}

func newSymbolicTable(budget int) *symbolicTable {
	return &symbolicTable{Cache: lru.New[symbolicKey, *SparseLU](budget)}
}

// patternHash mixes a CSR pattern one word at a time (FNV-1a's constants
// over ints instead of bytes). Collisions only cost a miss: a hit compares
// the patterns.
func patternHash(rowPtr, colIdx []int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range rowPtr {
		h = hashWord(h, uint64(v))
	}
	for _, v := range colIdx {
		h = hashWord(h, uint64(v))
	}
	return h
}

const fnvOffset = 14695981039346656037

// hashWord mixes one word into h.
func hashWord(h, v uint64) uint64 {
	return (h ^ v) * 1099511628211
}

// factor is SparseLUFactor behind the table; tol is already normalised.
func (t *symbolicTable) factor(a *CSR, tol float64) (*SparseLU, error) {
	key := symbolicKey{n: a.Rows, tol: math.Float64bits(tol), hash: patternHash(a.RowPtr, a.ColIdx)}
	if sym := t.lookup(key, a); sym != nil {
		f := sym.cloneFor(a)
		if f.refactorInto(a, f.lx, f.ux, f.work, true, tol) == nil {
			t.hits.Add(1)
			return f, nil
		}
		t.rejections.Add(1)
	} else {
		t.misses.Add(1)
	}
	f, err := factorFresh(a, tol)
	if err != nil {
		return nil, err
	}
	t.store(key, f)
	return f, nil
}

func (t *symbolicTable) stats() (hits, misses, rejections int64) {
	return t.hits.Load(), t.misses.Load(), t.rejections.Load()
}

// lookup returns the stored analysis of a's pattern under key, marking it
// most recently used, or nil.
func (t *symbolicTable) lookup(key symbolicKey, a *CSR) *SparseLU {
	sym, ok := t.Get(key)
	if !ok || !samePattern(a.RowPtr, a.ColIdx, sym.aRowPtr, sym.aColIdx) {
		return nil // absent, or a hash collision
	}
	return sym
}

// store records f's analysis under key (see lru.Cache.Put).
func (t *symbolicTable) store(key symbolicKey, f *SparseLU) {
	sym := f.analysis()
	t.Put(key, sym, sym.analysisBytes())
}

// analysis returns f's symbolic analysis as a table entry: f's read-only
// arrays, a private copy of the pattern (a caller's slices are only
// promised to stay fixed while its own factorisations use them), and no
// values or scratch.
func (f *SparseLU) analysis() *SparseLU {
	return &SparseLU{n: f.n,
		lp: f.lp, li: f.li, up: f.up, ui: f.ui,
		pinv: f.pinv, q: f.q, FillFactor: f.FillFactor,
		aRowPtr: slices.Clone(f.aRowPtr), aColIdx: slices.Clone(f.aColIdx),
		atp: f.atp, ati: f.ati, atMap: f.atMap}
}

// analysisBytes is what a table entry holding f retains: the capacity of
// its index arrays.
func (f *SparseLU) analysisBytes() int {
	return 8 * (cap(f.lp) + cap(f.li) + cap(f.up) + cap(f.ui) + cap(f.pinv) + cap(f.q) +
		cap(f.aRowPtr) + cap(f.aColIdx) + cap(f.atp) + cap(f.ati) + cap(f.atMap))
}

// cloneFor returns a factorisation of a's pattern on the stored analysis
// f: private value arrays (L's unit diagonal in place), zeroed refactor
// scratch, and a's own pattern slices, so that the result's SamePattern
// checks against a stay O(1).
func (f *SparseLU) cloneFor(a *CSR) *SparseLU {
	c := *f
	c.lx = make([]float64, len(f.li))
	for _, p := range f.lp[:f.n] {
		c.lx[p] = 1
	}
	c.ux = make([]float64, len(f.ui))
	c.work = make([]float64, f.n)
	c.aRowPtr, c.aColIdx = a.RowPtr, a.ColIdx
	return &c
}
