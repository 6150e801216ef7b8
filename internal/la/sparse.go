package la

import (
	"fmt"
	"sort"
)

// Triplet is a coordinate-format sparse matrix builder. Duplicate entries are
// summed on compression, which matches MNA "stamping" semantics exactly.
type Triplet struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewTriplet returns an empty builder for an r×c matrix.
func NewTriplet(r, c int) *Triplet {
	return &Triplet{Rows: r, Cols: c}
}

// Append records a(i,j) += v.
func (t *Triplet) Append(i, j int, v float64) {
	if i < 0 || i >= t.Rows || j < 0 || j >= t.Cols {
		panic(fmt.Sprintf("la: triplet index (%d,%d) out of range %dx%d", i, j, t.Rows, t.Cols))
	}
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.V = append(t.V, v)
}

// Compress converts to CSR, summing duplicates.
func (t *Triplet) Compress() *CSR {
	dst := &CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: make([]int, t.Rows+1),
		ColIdx: make([]int, 0, len(t.V)), Val: make([]float64, 0, len(t.V))}
	rowCount := make([]int, t.Rows+1)
	for _, i := range t.I {
		rowCount[i+1]++
	}
	for i := 0; i < t.Rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	colIdx := make([]int, len(t.V))
	vals := make([]float64, len(t.V))
	next := append([]int(nil), rowCount[:t.Rows]...)
	for k, i := range t.I {
		p := next[i]
		colIdx[p] = t.J[k]
		vals[p] = t.V[k]
		next[i]++
	}
	for i := 0; i < t.Rows; i++ {
		lo, hi := rowCount[i], rowCount[i+1]
		sortRowSeg(colIdx[lo:hi], vals[lo:hi])
		prev := -1
		for k := lo; k < hi; k++ {
			if colIdx[k] == prev {
				dst.Val[len(dst.Val)-1] += vals[k]
				continue
			}
			dst.ColIdx = append(dst.ColIdx, colIdx[k])
			dst.Val = append(dst.Val, vals[k])
			prev = colIdx[k]
		}
		dst.RowPtr[i+1] = len(dst.Val)
	}
	return dst
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// sortRowSeg orders one row's (column, value) pairs by column with a stable
// insertion sort: MNA rows are short, the sort allocates nothing (unlike a
// sort.Interface conversion), and stability makes duplicate summation order
// — and therefore the compressed bits — independent of the sort. StampMap
// sorts (column, stamp index) pairs with it.
func sortRowSeg[T int | float64](col []int, val []T) {
	for k := 1; k < len(col); k++ {
		c, v := col[k], val[k]
		kk := k
		for kk > 0 && col[kk-1] > c {
			col[kk] = col[kk-1]
			val[kk] = val[kk-1]
			kk--
		}
		col[kk] = c
		val[kk] = v
	}
}

// CSR is a compressed-sparse-row matrix with sorted, duplicate-free columns in
// each row. Its pattern (RowPtr, ColIdx) is never rewritten in place once
// built: code whose structure changes builds fresh slices, and only Val is
// restamped. BlockStencil and SparseLU rely on this to recognise an unchanged
// pattern by slice identity.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns a(i,j) with a binary search over row i (0 if not stored).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A·x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// Dense expands the matrix (for tests and tiny systems only).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// Clone deep-copies the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...)}
	return c
}

// DiagIndex returns, for each row i, the position k in Val of a(i,i), or -1
// when the diagonal entry is structurally absent.
func (m *CSR) DiagIndex() []int {
	idx := make([]int, m.Rows)
	for i := range idx {
		idx[i] = -1
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				idx[i] = k
				break
			}
		}
	}
	return idx
}
