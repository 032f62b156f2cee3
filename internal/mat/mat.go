// Package mat provides the dense linear algebra needed by the CapGPU
// control stack: matrices and vectors, factorizations (LU, QR,
// Cholesky), least-squares solvers, and eigenvalue computation for
// closed-loop pole analysis.
//
// The package is self-contained (standard library only) and favors
// clarity and numerical robustness over raw speed; the matrices that
// arise in server power control are tiny (tens of rows), so all
// algorithms here are textbook dense methods with partial pivoting or
// Householder orthogonalization.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense, row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Mat {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at (i, j).
func (m *Mat) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

// Add accumulates v into the element at (i, j).
func (m *Mat) Add(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] += v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a copy of row i.
func (m *Mat) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	r := make([]float64, m.Cols)
	copy(r, m.Data[i*m.Cols:(i+1)*m.Cols])
	return r
}

// RowView returns row i as a slice of m.Data: no copy is made, and
// writes through it modify m.
func (m *Mat) RowView(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Reset reshapes m to a zeroed rows x cols matrix, reusing its storage
// when it is large enough.
func (m *Mat) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	m.Rows, m.Cols = rows, cols
	m.Data = Reuse(m.Data, rows*cols)
}

// Col returns a copy of column j.
func (m *Mat) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.Cols))
	}
	c := make([]float64, m.Rows)
	for i := range c {
		c[i] = m.Data[i*m.Cols+j]
	}
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Scale returns s*m as a new matrix.
func (m *Mat) Scale(s float64) *Mat {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// AddMat returns m + other as a new matrix.
func (m *Mat) AddMat(other *Mat) *Mat {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: add dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	c := m.Clone()
	for i, v := range other.Data {
		c.Data[i] += v
	}
	return c
}

// SubMat returns m - other as a new matrix.
func (m *Mat) SubMat(other *Mat) *Mat {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: sub dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	c := m.Clone()
	for i, v := range other.Data {
		c.Data[i] -= v
	}
	return c
}

// Mul returns m * other as a new matrix.
func (m *Mat) Mul(other *Mat) *Mat {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	p := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			rowOther := other.Data[k*other.Cols : (k+1)*other.Cols]
			rowP := p.Data[i*p.Cols : (i+1)*p.Cols]
			for j, b := range rowOther {
				rowP[j] += a * b
			}
		}
	}
	return p
}

// MulVec returns m * v as a new vector.
func (m *Mat) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes m * v into dst (len(dst) == m.Rows; dst must not
// alias v).
func (m *Mat) MulVecInto(dst, v []float64) {
	if m.Cols != len(v) || m.Rows != len(dst) {
		panic(fmt.Sprintf("mat: mulvec dimension mismatch %dx%d * %d into %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := range dst {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// Trace returns the sum of the diagonal of a square matrix.
func (m *Mat) Trace() float64 {
	if m.Rows != m.Cols {
		panic("mat: trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

// NormFrob returns the Frobenius norm of m.
func (m *Mat) NormFrob() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry of m (0 for empty matrices).
func (m *Mat) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and other agree elementwise within tol.
func (m *Mat) Equal(other *Mat, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Reuse returns buf resliced to length n and zeroed, allocating only
// when cap(buf) < n: the building block of the reusable solver
// workspaces.
func Reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Vector helpers. Vectors are plain []float64 throughout the repo; the
// functions below supply the handful of operations the controllers need.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AddVec returns a + b as a new vector.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: addvec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SubVec returns a - b as a new vector.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: subvec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec returns s*v as a new vector.
func ScaleVec(s float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// Axpy accumulates a*x into y in place (y += a*x).
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// OuterProduct returns a*b^T.
func OuterProduct(a, b []float64) *Mat {
	m := New(len(a), len(b))
	for i, av := range a {
		for j, bv := range b {
			m.Data[i*m.Cols+j] = av * bv
		}
	}
	return m
}
