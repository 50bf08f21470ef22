// Package linalg provides the linear-algebra substrate used by the
// adaptive matrix mechanism. It is written against the standard library
// only and replaces the numpy/LAPACK layer used by the paper's reference
// implementation.
//
// The package has two tiers:
//
//   - The dense tier: row-major float64 Matrix with arithmetic,
//     factorizations (LU, Cholesky), a symmetric eigensolver,
//     pseudo-inverses, and Kronecker / Hadamard products. O(n³)
//     algorithms, right up to a few thousand cells.
//   - The operator tier: the Operator interface (see operator.go for the
//     representation guide) with matrix-free structured implementations —
//     Sparse CSR, Identity, Prefix, Intervals, Kronecker products and
//     structural combinators — plus the iterative CGLS least-squares
//     solver. This is the tier that scales past the dense ceiling: only
//     matvecs are ever required, so memory is O(nonzeros or less) and a
//     release costs O(rows) for the analytic forms.
//
// Matrix itself implements Operator, so dense remains just one
// representation choice among several.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Use New, NewFromRows, Identity or
// one of the structured constructors to build a useful instance.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns a zero-filled matrix with the given shape.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equal-length rows. The data
// is copied. It panics if the rows have inconsistent lengths.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	n := len(rows[0])
	m := New(len(rows), n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("linalg: row %d has length %d, want %d", i, len(r), n))
		}
		copy(m.data[i*n:(i+1)*n], r)
	}
	return m
}

// NewFromData wraps the given row-major backing slice without copying.
// It panics if len(data) != rows*cols.
func NewFromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i as a slice.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the row-major backing slice of the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m * other.
// It panics if the inner dimensions disagree.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := New(m.rows, other.cols)
	// ikj loop order: stream over rows of other for cache friendliness.
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			brow := other.Row(k)
			for j, b := range brow {
				orow[j] += a * b
			}
		}
	}
	return out
}

// Add returns m + other as a new matrix. It panics on shape mismatch.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.checkSameShape(other, "Add")
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - other as a new matrix. It panics on shape mismatch.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.checkSameShape(other, "Sub")
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s * m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Hadamard returns the entry-wise (Hadamard) product m ∘ other.
// It panics on shape mismatch.
func (m *Matrix) Hadamard(other *Matrix) *Matrix {
	m.checkSameShape(other, "Hadamard")
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] *= v
	}
	return out
}

func (m *Matrix) checkSameShape(other *Matrix, op string) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, other.rows, other.cols))
	}
}

// Gram returns mᵀ * m computed directly (exploiting symmetry of the result).
func (m *Matrix) Gram() *Matrix {
	n := m.cols
	out := New(n, n)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			orow := out.Row(a)
			for b := a; b < n; b++ {
				orow[b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out.data[b*n+a] = out.data[a*n+b]
		}
	}
	return out
}

// Trace returns the sum of diagonal entries. It panics if m is not square.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic("linalg: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// TraceProduct returns trace(m * other) without forming the product.
// It panics unless m is p x q and other is q x p.
func (m *Matrix) TraceProduct(other *Matrix) float64 {
	if m.cols != other.rows || m.rows != other.cols {
		panic(fmt.Sprintf("linalg: TraceProduct shape mismatch %dx%d vs %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t += v * other.data[j*other.cols+i]
		}
	}
	return t
}

// ColNorms2 returns the squared L2 norm of every column.
func (m *Matrix) ColNorms2() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v * v
		}
	}
	return out
}

// ColNormsL1 returns the L1 norm of every column.
func (m *Matrix) ColNormsL1() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += math.Abs(v)
		}
	}
	return out
}

// MaxColNorm2 returns the maximum L2 column norm (the L2 sensitivity of a
// query matrix, Prop. 1 of the paper).
func (m *Matrix) MaxColNorm2() float64 {
	var best float64
	for _, s := range m.ColNorms2() {
		if s > best {
			best = s
		}
	}
	return math.Sqrt(best)
}

// MaxColNormL1 returns the maximum L1 column norm (the L1 sensitivity of a
// query matrix).
func (m *Matrix) MaxColNormL1() float64 {
	var best float64
	for _, s := range m.ColNormsL1() {
		if s > best {
			best = s
		}
	}
	return best
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// StackRows returns a new matrix whose rows are the rows of the arguments,
// in order. All arguments must have the same number of columns.
func StackRows(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].cols
	total := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("linalg: StackRows column mismatch %d vs %d", m.cols, cols))
		}
		total += m.rows
	}
	out := New(total, cols)
	at := 0
	for _, m := range ms {
		copy(out.data[at:at+len(m.data)], m.data)
		at += len(m.data)
	}
	return out
}

// Kronecker returns the Kronecker product m ⊗ other. Multi-dimensional
// range and hierarchical strategies are Kronecker products of their
// one-dimensional counterparts, so this is a core building block.
func Kronecker(a, b *Matrix) *Matrix {
	out := New(a.rows*b.rows, a.cols*b.cols)
	for ia := 0; ia < a.rows; ia++ {
		arow := a.Row(ia)
		for ib := 0; ib < b.rows; ib++ {
			brow := b.Row(ib)
			orow := out.Row(ia*b.rows + ib)
			for ja, va := range arow {
				if va == 0 {
					continue
				}
				base := ja * b.cols
				for jb, vb := range brow {
					orow[base+jb] = va * vb
				}
			}
		}
	}
	return out
}

// KroneckerAll returns the Kronecker product of all arguments in order.
// With no arguments it returns the 1x1 matrix [1].
func KroneckerAll(ms ...*Matrix) *Matrix {
	out := NewFromRows([][]float64{{1}})
	for _, m := range ms {
		out = Kronecker(out, m)
	}
	return out
}

// PermuteCols returns a copy of m with columns reordered so that new column
// j is old column perm[j]. It panics if perm is not a permutation of
// 0..cols-1 by length (content is the caller's responsibility).
func (m *Matrix) PermuteCols(perm []int) *Matrix {
	if len(perm) != m.cols {
		panic(fmt.Sprintf("linalg: PermuteCols length %d, want %d", len(perm), m.cols))
	}
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for j, p := range perm {
			orow[j] = row[p]
		}
	}
	return out
}

// Equal reports whether the matrices have the same shape and entries within
// absolute tolerance tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are
// summarized by shape.
func (m *Matrix) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .4g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
