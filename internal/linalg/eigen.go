package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EigenSym holds the eigendecomposition of a real symmetric matrix
// a = Vᵀ diag(values) V, where the rows of V are orthonormal eigenvectors.
// Eigenvalues are sorted in descending order, matching the paper's
// convention that σ₁ is the largest eigenvalue of WᵀW.
type EigenSym struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Vectors has the eigenvector for Values[i] in row i.
	Vectors *Matrix
}

// ErrNoConvergence is returned when the QL iteration fails to converge;
// this does not happen for well-scaled symmetric inputs.
var ErrNoConvergence = errors.New("linalg: eigen iteration did not converge")

// SymEigen computes the eigendecomposition of the symmetric matrix a using
// Householder tridiagonalization followed by the implicit-shift QL
// algorithm (the classic tred2/tql2 pair). Only the lower triangle of a is
// read. Cost is O(n³).
func SymEigen(a *Matrix) (*EigenSym, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: SymEigen of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	if n == 0 {
		return &EigenSym{Values: nil, Vectors: New(0, 0)}, nil
	}
	// vt starts as the transpose of a and is overwritten with the
	// transpose of the accumulated orthogonal transformation: on exit from
	// tql2 its rows are the eigenvectors. Holding the transpose turns every
	// column sweep of the classic formulation into a walk along a row.
	vt := a.T()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(vt, d, e)
	if err := tql2(vt, d, e); err != nil {
		return nil, err
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	values := make([]float64, n)
	vectors := New(n, n)
	for r, j := range idx {
		values[r] = d[j]
		copy(vectors.Row(r), vt.Row(j))
	}
	return &EigenSym{Values: values, Vectors: vectors}, nil
}

// tred2 reduces a symmetric matrix to tridiagonal form using Householder
// reflections, accumulating the transformation. It follows the
// EISPACK/JAMA formulation on V, but is handed vt = Vᵀ: JAMA's V[i][j] is
// vt[j][i] here, with the same arithmetic in the same order. On exit d
// holds the diagonal and e the subdiagonal (e[0] unused).
func tred2(vt *Matrix, d, e []float64) {
	n := vt.rows
	for j := 0; j < n; j++ {
		d[j] = vt.data[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		rowI := vt.Row(i)
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				rowJ := vt.Row(j)
				d[j] = rowJ[i-1]
				rowJ[i] = 0
				rowI[j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				rowJ := vt.Row(j)
				f = d[j]
				rowI[j] = f
				g = e[j] + rowJ[j]*f
				for k := j + 1; k <= i-1; k++ {
					g += rowJ[k] * d[k]
					e[k] += rowJ[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				rowJ := vt.Row(j)
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					rowJ[k] -= (f*e[k] + g*d[k])
				}
				d[j] = rowJ[i-1]
				rowJ[i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		rowI := vt.Row(i)
		rowI[n-1] = rowI[i]
		rowI[i] = 1
		next := vt.Row(i + 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				rowJ := vt.Row(j)
				var g float64
				for k := 0; k <= i; k++ {
					g += next[k] * rowJ[k]
				}
				for k := 0; k <= i; k++ {
					rowJ[k] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		rowJ := vt.Row(j)
		d[j] = rowJ[n-1]
		rowJ[n-1] = 0
	}
	vt.data[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes a symmetric tridiagonal matrix (d diagonal, e
// subdiagonal) with the implicit-shift QL algorithm, accumulating
// eigenvectors into the rows of vt (the columns of JAMA's V).
func tql2(vt *Matrix, d, e []float64) error {
	n := vt.rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 64 {
					return ErrNoConvergence
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate eigenvectors: rotate rows i and i+1.
					vi, vi1 := vt.Row(i), vt.Row(i+1)
					for k := range vi1 {
						h = vi1[k]
						vi1[k] = s*vi[k] + c*h
						vi[k] = c*vi[k] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// Rank returns the number of eigenvalues larger than tol relative to the
// largest magnitude eigenvalue. Use on the decomposition of a Gram matrix
// WᵀW to obtain rank(W).
func (eg *EigenSym) Rank(tol float64) int {
	if len(eg.Values) == 0 {
		return 0
	}
	var maxAbs float64
	for _, v := range eg.Values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	r := 0
	for _, v := range eg.Values {
		if math.Abs(v) > tol*maxAbs {
			r++
		}
	}
	return r
}

// Reconstruct returns Vᵀ diag(values) V, useful for verifying the
// decomposition in tests.
func (eg *EigenSym) Reconstruct() *Matrix {
	n := len(eg.Values)
	out := New(n, n)
	for r := 0; r < n; r++ {
		lam := eg.Values[r]
		if lam == 0 {
			continue
		}
		vec := eg.Vectors.Row(r)
		for i := 0; i < n; i++ {
			vi := lam * vec[i]
			if vi == 0 {
				continue
			}
			orow := out.Row(i)
			for j := 0; j < n; j++ {
				orow[j] += vi * vec[j]
			}
		}
	}
	return out
}

// PseudoInverseSym computes the Moore-Penrose pseudo-inverse of a symmetric
// positive semi-definite matrix via its eigendecomposition, treating
// eigenvalues below tol (relative to the largest) as zero.
func PseudoInverseSym(a *Matrix, tol float64) (*Matrix, error) {
	eg, err := SymEigen(a)
	if err != nil {
		return nil, err
	}
	return eg.PseudoInverse(tol), nil
}

// PseudoInverse assembles the pseudo-inverse Σₖ vₖvₖᵀ/λₖ of the
// decomposed positive semi-definite matrix over its eigenpairs above the
// cutoff (see pinvCutoff).
func (eg *EigenSym) PseudoInverse(tol float64) *Matrix {
	n := len(eg.Values)
	cut := eg.pinvCutoff(tol)
	out := New(n, n)
	for r := 0; r < n; r++ {
		lam := eg.Values[r]
		if lam <= cut {
			continue
		}
		inv := 1 / lam
		vec := eg.Vectors.Row(r)
		for i := 0; i < n; i++ {
			vi := inv * vec[i]
			if vi == 0 {
				continue
			}
			orow := out.Row(i)
			for j := 0; j < n; j++ {
				orow[j] += vi * vec[j]
			}
		}
	}
	return out
}

// pinvCutoff is the eigenvalue at or below which a pseudo-inverse treats
// an eigenpair as null: tol times the largest eigenvalue, and never
// below zero.
func (eg *EigenSym) pinvCutoff(tol float64) float64 {
	var maxV float64
	for _, v := range eg.Values {
		maxV = max(maxV, v)
	}
	return max(tol*maxV, 0)
}

// TracePinv returns trace(G·A⁺) for a symmetric positive semi-definite
// G and the decomposed A, with A⁺ cut off at tol as PseudoInverse does,
// summed as Σₖ vₖᵀGvₖ/λₖ over A's kept eigenpairs: non-negative terms
// that cannot cancel. Forming A⁺ first and summing its entrywise product
// with G loses the result when A has eigenvalues just above the cutoff:
// A⁺ then holds entries of order 1/λ, and a sum of terms near 1e11 can
// cancel down to a trace near 7 with only a few digits left.
func (eg *EigenSym) TracePinv(g *Matrix, tol float64) float64 {
	if n := len(eg.Values); g.rows != n || g.cols != n {
		panic(fmt.Sprintf("linalg: TracePinv of a %dx%d matrix against %d eigenpairs", g.rows, g.cols, n))
	}
	cut := eg.pinvCutoff(tol)
	vg := eg.Vectors.MulParallel(g) // row k is vₖᵀG
	var t float64
	for k, lam := range eg.Values {
		if lam <= cut {
			continue
		}
		if q := dot(vg.Row(k), eg.Vectors.Row(k)); q > 0 {
			t += q / lam
		}
	}
	return t
}

// PseudoInverse computes the Moore-Penrose pseudo-inverse A⁺ of a general
// p x n matrix as (AᵀA)⁺Aᵀ, an identity that holds for all real matrices.
// The symmetric pseudo-inverse goes through the eigendecomposition, which
// detects rank deficiency reliably (LU pivot magnitudes do not).
func PseudoInverse(a *Matrix) (*Matrix, error) {
	inv, err := PseudoInverseSym(a.GramParallel(), 1e-11)
	if err != nil {
		return nil, err
	}
	return inv.MulParallel(a.T()), nil
}
