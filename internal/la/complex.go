package la

import (
	"fmt"
	"math/cmplx"
)

// CDense is a row-major dense complex matrix, used by the harmonic-balance
// solver whose Jacobians live in the frequency domain.
type CDense struct {
	Rows, Cols int
	Data       []complex128
}

// NewCDense returns a zeroed r×c complex matrix.
func NewCDense(r, c int) *CDense {
	return &CDense{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns the element at (i, j).
func (m *CDense) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *CDense) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into (i, j).
func (m *CDense) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i.
func (m *CDense) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *CDense) Clone() *CDense {
	c := NewCDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = A·x.
func (m *CDense) MulVec(x, y []complex128) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := complex(0, 0)
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// CLU is a dense complex LU factorisation with partial pivoting.
type CLU struct {
	n   int
	lu  *CDense
	piv []int
}

// CDenseLU factors A with partial pivoting on |·|.
func CDenseLU(a *CDense) (*CLU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, mx := k, cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("%w (complex pivot column %d)", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pv := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pv
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
	return &CLU{n: n, lu: lu, piv: piv}, nil
}

// Solve solves A·x = b (x may alias b).
func (f *CLU) Solve(b, x []complex128) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	y := make([]complex128, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s
	}
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
