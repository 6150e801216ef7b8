// Package la provides the dense and sparse linear-algebra kernels used by the
// simulator: dense LU with partial pivoting (real and complex), sparse
// matrices in triplet and compressed-sparse-row form, a left-looking sparse LU
// (Gilbert–Peierls), restarted GMRES, and block preconditioners.
//
// Everything is written against float64 slices so the hot loops stay free of
// interface dispatch; matrices are small-to-medium (MNA systems and MPDE grid
// Jacobians), so clarity is preferred over blocking/vectorisation tricks.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation encounters an (effectively)
// singular pivot.
var ErrSingular = errors.New("la: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("la: incompatible matrix shapes")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("la: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// DenseFromRows builds a matrix from row slices (which are copied).
func DenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("la: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (not a copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all entries to 0 without reallocating.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MulVec computes y = A·x. y must have length A.Rows, x length A.Cols.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// Mul computes C = A·B, allocating the result.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic(ErrShape)
	}
	c := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		crow := c.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	}
	return c
}

// AddScaled accumulates s·B into the receiver (in place).
func (m *Dense) AddScaled(s float64, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(ErrShape)
	}
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

// Scale multiplies all entries by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Transpose returns a new transposed matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbs returns the largest absolute entry (∞-norm over elements).
func (m *Dense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}

// LU is a dense LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	n    int
	lu   *Dense // L (unit diagonal, strictly lower) and U packed together
	piv  []int  // row permutation: row i of PA is row piv[i] of A
	sign int    // determinant sign of P
}

// DenseLU factors A (which is overwritten in a copy) with partial pivoting.
// Returns ErrSingular if a pivot is exactly zero; near-singular systems are
// allowed through so callers can apply gmin-style regularisation themselves.
func DenseLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest |entry| in column k at or below k.
		p, mx := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("%w (pivot column %d)", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b in place into x (x may alias b).
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	// Apply permutation: y = P·b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
	copy(x, y)
}

// SolveMatrix solves A·X = B column by column, returning X.
func (f *LU) SolveMatrix(b *Dense) *Dense {
	if b.Rows != f.n {
		panic(ErrShape)
	}
	x := NewDense(b.Rows, b.Cols)
	col := make([]float64, f.n)
	out := make([]float64, f.n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.At(i, j)
		}
		f.Solve(col, out)
		for i := 0; i < f.n; i++ {
			x.Set(i, j, out[i])
		}
	}
	return x
}

// Det returns the determinant from the factorisation.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveDense is a convenience: factor A and solve A·x = b once.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := DenseLU(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(b, x)
	return x, nil
}

// CondEstimate returns a cheap 1-norm condition estimate |A|₁·|A⁻¹e|∞-ish
// bound used only for diagnostics (not a rigorous condition number).
func CondEstimate(a *Dense) float64 {
	f, err := DenseLU(a)
	if err != nil {
		return math.Inf(1)
	}
	n := a.Rows
	norm1 := 0.0
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += math.Abs(a.At(i, j))
		}
		if s > norm1 {
			norm1 = s
		}
	}
	e := make([]float64, n)
	for i := range e {
		e[i] = 1
	}
	x := make([]float64, n)
	f.Solve(e, x)
	return norm1 * NormInf(x)
}
