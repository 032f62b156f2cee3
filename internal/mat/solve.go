package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U. The
// zero value is an empty factorization ready for Refactor, which reuses
// its storage, so one LU can factor a sequence of systems without
// allocating.
type LU struct {
	lu   Mat   // combined L (unit lower) and U factors
	piv  []int // row permutation
	sign int   // determinant sign of the permutation
}

// Factor computes the LU factorization of square a.
func Factor(a *Mat) (*LU, error) {
	f := new(LU)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor computes the LU factorization of square a into f's storage,
// leaving a unchanged. On error f holds no usable factorization.
func (f *LU) Refactor(a *Mat) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("mat: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	f.lu.Rows, f.lu.Cols = n, n
	f.lu.Data = append(f.lu.Data[:0], a.Data...)
	f.piv = Reuse(f.piv, n)
	for i := range f.piv {
		f.piv[i] = i
	}
	f.sign = 1
	d, piv := f.lu.Data, f.piv
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p := k
		maxAbs := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(d[i*n+k]); a > maxAbs {
				maxAbs, p = a, i
			}
		}
		if maxAbs < 1e-14 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[p*n+j], d[k*n+j] = d[k*n+j], d[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			f.sign = -f.sign
		}
		inv := 1 / d[k*n+k]
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] * inv
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] += -m * d[k*n+j]
			}
		}
	}
	return nil
}

// Solve solves A*x = b using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A*x = b using the factorization, writing x into dst
// (len(dst) == len(b) == n; dst must not alias b).
func (f *LU) SolveInto(dst, b []float64) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: LU solve length mismatch %d, %d vs %d", len(b), len(dst), n))
	}
	x, d := dst, f.lu.Data
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower factor.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper factor.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s / d[i*n+i]
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves the square linear system a*x = b.
func Solve(a *Mat, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns a^-1 for square a.
func Inverse(a *Mat) (*Mat, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := New(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		f.SolveInto(col, e)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = col[i]
		}
	}
	return inv, nil
}

// QR holds a Householder QR factorization of an m x n matrix with m >= n.
type QR struct {
	qr   *Mat      // Householder vectors below the diagonal; R on and above
	rdia []float64 // diagonal of R
}

// FactorQR computes the QR factorization of a (m >= n required).
func FactorQR(a *Mat) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("mat: QR needs rows >= cols, got %dx%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder reflection zeroing column k below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Add(k, k, 1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// FullRank reports whether R has no (near-)zero diagonal entry.
func (f *QR) FullRank() bool {
	for _, d := range f.rdia {
		if math.Abs(d) < 1e-12 {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ||A*x - b||2.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("mat: QR solve length mismatch %d vs %d", len(b), m)
	}
	if !f.FullRank() {
		return nil, ErrSingular
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Householder reflections: y = Q^T b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R*x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdia[i]
	}
	return x, nil
}

// LeastSquares returns argmin_x ||A*x - b||2 via Householder QR.
func LeastSquares(a *Mat, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// RidgeLeastSquares returns argmin_x ||A*x - b||2 + lambda*||x||2, a
// Tikhonov-regularized fit used when excitation data are nearly
// collinear (e.g. short system-identification runs).
func RidgeLeastSquares(a *Mat, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("mat: negative ridge parameter %g", lambda)
	}
	m, n := a.Rows, a.Cols
	aug := New(m+n, n)
	for i := 0; i < m; i++ {
		copy(aug.Data[i*n:(i+1)*n], a.Data[i*n:(i+1)*n])
	}
	s := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, s)
	}
	bb := make([]float64, m+n)
	copy(bb, b)
	return LeastSquares(aug, bb)
}

// Cholesky holds the lower-triangular factor of a symmetric
// positive-definite matrix: A = L*L^T.
type Cholesky struct {
	l *Mat
}

// FactorCholesky computes the Cholesky factorization of symmetric
// positive definite a.
func FactorCholesky(a *Mat) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, fmt.Errorf("mat: matrix not positive definite at pivot %d (%g)", j, d)
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A*x = b using the Cholesky factors.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: Cholesky solve length mismatch %d vs %d", len(b), n))
	}
	// Forward: L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	// Back: L^T*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Mat { return c.l.Clone() }

// RSquared returns the coefficient of determination of predictions yhat
// against observations y: 1 - SS_res/SS_tot. It is the figure of merit
// the paper reports for both the power model (Fig. 2a) and the latency
// model (Fig. 2b).
func RSquared(y, yhat []float64) float64 {
	if len(y) != len(yhat) {
		panic(fmt.Sprintf("mat: rsquared length mismatch %d vs %d", len(y), len(yhat)))
	}
	if len(y) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i, v := range y {
		r := v - yhat[i]
		ssRes += r * r
		t := v - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
