package la

import (
	"fmt"
	"math"
)

// StampMap is a compiled stamp sequence: the Jacobian half of a device
// evaluation whose (row, col) stamps repeat in the same order every time.
// The first pass records (i, j, v) stamps and compresses them as
// Triplet.Compress does; it also keeps one value slot per stamp, so later
// passes write each value straight into the destination's Val by slot
// (SPICE3's setup-time matrix pointers, in CSR form). A pass that stamps a
// different sequence — another position, a stamp missing or one extra — is
// detected at End, and the caller re-runs it in record mode to recompile.
//
// A pass starts every slot at -0.0, the exact identity of IEEE addition
// (x + -0.0 == x bit for bit, +0.0 and -0.0 included), so adding the first
// stamp stores it. The rest add in stamp order, the order in which Compress
// sorts stably and then sums, so the values are bit-identical to a fresh
// compression.
//
// A compiled pattern (RowPtr, ColIdx) is immutable: a recompile allocates
// fresh slices, so every matrix handed out keeps a valid pattern and
// BlockStencil and SparseLU may recognise an unchanged one by slice
// identity.
//
// The map keeps its last stampMapKeep compiled sequences. A recording pass
// that stamps one of them again re-adopts that sequence and its pattern
// slices instead of compiling: devices that alternate between a few stamp
// sequences from one evaluation to the next — grid points on either side
// of a switching threshold — compile each once and hand out one pattern
// per sequence.
type StampMap struct {
	Rows, Cols int

	// The active compiled sequence and its pattern, shared read-only;
	// rowPtr is nil until the first recording pass ends and during a
	// recording pass.
	rowPtr, colIdx []int
	seq            []stampSlot
	k              int // next position in seq
	val            []float64

	// kept holds the last compiled sequences, the most recently used
	// first; compiles counts the compiles.
	kept     [stampMapKeep]compiledSeq
	nKept    int
	compiles int

	// log holds the stamps a pass could not replay. A recording pass
	// replays against an empty seq, so it logs every stamp.
	log []stamp
	dst *CSR
}

// stampMapKeep is how many compiled sequences a StampMap keeps.
const stampMapKeep = 4

// compiledSeq is one compiled stamp sequence and its pattern.
type compiledSeq struct {
	rowPtr, colIdx []int
	seq            []stampSlot
}

type stampSlot struct {
	i, j, slot int32
}

type stamp struct {
	i, j int
	v    float64
}

// NewStampMap returns an uncompiled map for an r×c matrix; its first pass
// records.
func NewStampMap(r, c int) *StampMap {
	return &StampMap{Rows: r, Cols: c}
}

// Begin starts a pass whose values land in dst. A compiled map replays:
// dst takes the shared pattern and a Val of the pattern's length (grown
// only when its capacity is short). An uncompiled map, or any map when
// record is set, records, and End builds dst.
func (m *StampMap) Begin(dst *CSR, record bool) {
	m.k, m.log, m.dst = 0, m.log[:0], dst
	if record {
		m.rowPtr, m.colIdx = nil, nil
	}
	if m.rowPtr == nil {
		m.seq = nil
		return
	}
	m.bind()
}

// bind points dst at the compiled pattern and the pass's writes at a Val
// of its length, every slot -0.0.
func (m *StampMap) bind() {
	dst := m.dst
	dst.Rows, dst.Cols = m.Rows, m.Cols
	dst.RowPtr, dst.ColIdx = m.rowPtr, m.colIdx
	dst.Val = growFloats(dst.Val, len(m.colIdx))
	Fill(dst.Val, negZero)
	m.val = dst.Val
}

// negZero starts every slot of a pass; see StampMap.
var negZero = math.Copysign(0, -1)

// Add accumulates a(i, j) += v at the pass's next stamp position.
//
//mpde:hotpath
func (m *StampMap) Add(i, j int, v float64) {
	k := m.k
	m.k = k + 1
	if k < len(m.seq) {
		if s := &m.seq[k]; int(s.i) == i && int(s.j) == j {
			m.val[s.slot] += v
			return
		}
	}
	m.log = append(m.log, stamp{i, j, v}) //mpde:alloc-ok logs only while recording or after a sequence miss
}

// End finishes the pass. A recording pass re-adopts a kept sequence equal
// to its stamps, or else compiles them into a fresh pattern; it writes dst
// and reports true. A replay reports whether it saw the compiled sequence
// exactly; on false dst is garbage and the caller must re-run the pass
// with record set.
func (m *StampMap) End() bool {
	if m.rowPtr != nil {
		return len(m.log) == 0 && m.k == len(m.seq)
	}
	if !m.readopt() {
		m.compile()
	}
	m.bind()
	for k, s := range m.seq {
		m.val[s.slot] += m.log[k].v
	}
	return true
}

// Compiles reports how many times the map has compiled a stamp sequence.
func (m *StampMap) Compiles() int { return m.compiles }

// readopt makes the kept sequence whose (row, col) stamps equal the logged
// ones, if any, the active one, and moves it to the front.
func (m *StampMap) readopt() bool {
	for k := 0; k < m.nKept; k++ {
		c := m.kept[k]
		if !m.logMatches(c.seq) {
			continue
		}
		copy(m.kept[1:k+1], m.kept[:k])
		m.kept[0] = c
		m.rowPtr, m.colIdx, m.seq = c.rowPtr, c.colIdx, c.seq
		return true
	}
	return false
}

// logMatches reports whether the logged stamps hit exactly seq's
// positions, in order.
func (m *StampMap) logMatches(seq []stampSlot) bool {
	if len(seq) != len(m.log) {
		return false
	}
	for k, s := range m.log {
		if int(seq[k].i) != s.i || int(seq[k].j) != s.j {
			return false
		}
	}
	return true
}

// compile turns the logged stamps into a fresh sequence and pattern, and
// keeps them at the front, evicting the least recently used sequence when
// all stampMapKeep are taken: rows bucketed in stamp order, each row's
// stamps sorted stably by column, equal columns merged into one slot.
func (m *StampMap) compile() {
	m.compiles++
	rowPtr := make([]int, m.Rows+1)
	for _, s := range m.log {
		if s.i < 0 || s.i >= m.Rows || s.j < 0 || s.j >= m.Cols {
			panic(fmt.Sprintf("la: triplet index (%d,%d) out of range %dx%d", s.i, s.j, m.Rows, m.Cols))
		}
		rowPtr[s.i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// order[p] is the stamp in sorted position p; col mirrors its column.
	order := make([]int, len(m.log))
	col := make([]int, len(m.log))
	next := append([]int(nil), rowPtr[:m.Rows]...)
	for k, s := range m.log {
		order[next[s.i]] = k
		col[next[s.i]] = s.j
		next[s.i]++
	}
	// The evicted sequence's slots are the map's own; its pattern may
	// still be in use and is left alone.
	if m.nKept < stampMapKeep {
		m.nKept++
	}
	seq := m.kept[m.nKept-1].seq
	if cap(seq) < len(m.log) {
		seq = make([]stampSlot, len(m.log))
	}
	m.seq = seq[:len(m.log)]
	colIdx := make([]int, 0, len(m.log))
	for i := 0; i < m.Rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sortRowSeg(col[lo:hi], order[lo:hi])
		rowPtr[i] = len(colIdx)
		for p := lo; p < hi; p++ {
			if p == lo || col[p] != col[p-1] {
				colIdx = append(colIdx, col[p])
			}
			m.seq[order[p]] = stampSlot{int32(i), int32(col[p]), int32(len(colIdx) - 1)}
		}
	}
	rowPtr[m.Rows] = len(colIdx)
	m.rowPtr, m.colIdx = rowPtr, colIdx
	copy(m.kept[1:m.nKept], m.kept[:m.nKept-1])
	m.kept[0] = compiledSeq{rowPtr, colIdx, m.seq}
}
