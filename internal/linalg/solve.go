package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization with partial pivoting of a square
// matrix a. It returns ErrSingular if a pivot underflows.
func FactorLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: FactorLU of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
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
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves a x = b for a single right-hand side.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: LU.Solve rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// Cholesky holds the lower-triangular Cholesky factor of a symmetric
// positive-definite matrix.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization a = L Lᵀ of a
// symmetric positive-definite matrix. It returns ErrSingular if a is not
// positive definite to working precision.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: FactorCholesky of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves a x = b using the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: Cholesky.Solve rhs length %d, want %d", len(b), n))
	}
	// L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	// Lᵀ x = y
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

// SolveSPD solves a x = b for symmetric positive-definite a, falling back
// to LU with a tiny diagonal ridge when a is only semi-definite. This is
// the solver the interior-point optimizer relies on.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	if c, err := FactorCholesky(a); err == nil {
		return c.Solve(b), nil
	}
	// Ridge fallback: a + eps*I keeps the Newton step well-defined when the
	// Hessian is nearly singular near the boundary of the feasible set.
	n := a.rows
	ridge := a.Clone()
	eps := 1e-10 * (1 + a.Trace()/float64(n))
	for i := 0; i < n; i++ {
		ridge.data[i*n+i] += eps
	}
	if c, err := FactorCholesky(ridge); err == nil {
		return c.Solve(b), nil
	}
	f, err := FactorLU(ridge)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
