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
	// v starts as a copy of a and is overwritten with the accumulated
	// orthogonal transformation (columns are eigenvectors on exit from tql2).
	v := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(v, d, e)
	if err := tql2(v, d, e); err != nil {
		return nil, err
	}
	// Sort eigenpairs by descending eigenvalue. v currently holds
	// eigenvectors in columns; produce row-oriented output.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	values := make([]float64, n)
	vectors := New(n, n)
	for r, j := range idx {
		values[r] = d[j]
		row := vectors.Row(r)
		for i := 0; i < n; i++ {
			row[i] = v.At(i, j)
		}
	}
	return &EigenSym{Values: values, Vectors: vectors}, nil
}

// tred2 reduces a symmetric matrix (stored in v) to tridiagonal form using
// Householder reflections, accumulating the transformation in v. On exit d
// holds the diagonal and e the subdiagonal (e[0] unused). This follows the
// EISPACK/JAMA formulation.
func tred2(v *Matrix, d, e []float64) {
	n := v.rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
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
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
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
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v.Set(k, j, v.At(k, j)-(f*e[k]+g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Set(k, j, v.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 diagonalizes a symmetric tridiagonal matrix (d diagonal, e
// subdiagonal) with the implicit-shift QL algorithm, accumulating
// eigenvectors into the columns of v.
func tql2(v *Matrix, d, e []float64) error {
	n := v.rows
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
					// Accumulate eigenvectors.
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
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
