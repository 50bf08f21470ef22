package linalg

import "fmt"

// Sparse is a compressed sparse row (CSR) matrix implementing Operator.
// It is the right representation for strategies with few nonzeros per row
// — hierarchical/tree strategies, diagonal completion rows — where the
// dense form would waste O(rows·cols) memory for O(nnz) information.
type Sparse struct {
	rows, cols int
	rowPtr     []int // len rows+1; row i spans [rowPtr[i], rowPtr[i+1])
	colIdx     []int
	val        []float64
}

// SparseBuilder accumulates CSR rows in order.
type SparseBuilder struct {
	cols   int
	rowPtr []int
	colIdx []int
	val    []float64
}

// NewSparseBuilder returns a builder for a CSR matrix with the given
// column count.
func NewSparseBuilder(cols int) *SparseBuilder {
	return &SparseBuilder{cols: cols, rowPtr: []int{0}}
}

// AppendRow adds one row given parallel slices of column indices and
// values. Indices must be in range; they need not be sorted.
func (b *SparseBuilder) AppendRow(cols []int, vals []float64) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("linalg: AppendRow %d indices, %d values", len(cols), len(vals)))
	}
	for _, c := range cols {
		if c < 0 || c >= b.cols {
			panic(fmt.Sprintf("linalg: AppendRow column %d out of %d", c, b.cols))
		}
	}
	b.colIdx = append(b.colIdx, cols...)
	b.val = append(b.val, vals...)
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// AppendConstRow adds one row whose listed columns all hold the same value.
func (b *SparseBuilder) AppendConstRow(cols []int, v float64) {
	for _, c := range cols {
		if c < 0 || c >= b.cols {
			panic(fmt.Sprintf("linalg: AppendConstRow column %d out of %d", c, b.cols))
		}
		b.colIdx = append(b.colIdx, c)
		b.val = append(b.val, v)
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// AppendRangeRow adds one row with value v on the contiguous columns
// [lo, hi] — the shape of range-query and tree-node rows.
func (b *SparseBuilder) AppendRangeRow(lo, hi int, v float64) {
	if lo < 0 || hi >= b.cols || lo > hi {
		panic(fmt.Sprintf("linalg: AppendRangeRow [%d,%d] out of %d columns", lo, hi, b.cols))
	}
	for c := lo; c <= hi; c++ {
		b.colIdx = append(b.colIdx, c)
		b.val = append(b.val, v)
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// Build finalizes the CSR matrix.
func (b *SparseBuilder) Build() *Sparse {
	return &Sparse{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		val:    b.val,
	}
}

// SparseFromMatrix converts a dense matrix to CSR, dropping zeros.
func SparseFromMatrix(m *Matrix) *Sparse {
	b := NewSparseBuilder(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var cols []int
		var vals []float64
		for j, v := range row {
			if v != 0 {
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		b.AppendRow(cols, vals)
	}
	return b.Build()
}

// SparseDiag returns the CSR matrix with the given rows: for each (col,
// value) pair one row holding value at column col. It is the completion
// row block of Program 2 in sparse form.
func SparseDiag(cols int, idx []int, vals []float64) *Sparse {
	b := NewSparseBuilder(cols)
	for k, j := range idx {
		b.AppendRow([]int{j}, []float64{vals[k]})
	}
	return b.Build()
}

// Rows returns the row count.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the column count.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// MulVecInto writes A·x into dst in O(nnz).
func (s *Sparse) MulVecInto(dst, x []float64) { s.MulVecRangeInto(dst, x, 0, s.rows) }

// MulVecRangeInto answers CSR rows [lo,hi) in O(nnz of the range).
func (s *Sparse) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(s, lo, hi, len(dst))
	checkMulVecLen(s, len(x), s.cols, false)
	for i := lo; i < hi; i++ {
		var acc float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			acc += s.val[k] * x[s.colIdx[k]]
		}
		dst[i-lo] = acc
	}
}

// MulVecTInto writes Aᵀ·y into dst in O(nnz).
func (s *Sparse) MulVecTInto(dst, y []float64) {
	checkMulVecLen(s, len(y), s.rows, true)
	checkMulVecLen(s, len(dst), s.cols, true)
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		v := y[i]
		if v == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += v * s.val[k]
		}
	}
}

// mulSlabRange writes rows [lo,hi) of A applied to every column of the
// cols×w slab x into the (hi-lo)×w slab dst: each output row accumulates
// the slab rows its entries select, so every column takes the same terms
// in the same order as MulVecRangeInto (bit-identical results).
func (s *Sparse) mulSlabRange(dst, x []float64, w, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := dst[(i-lo)*w : (i-lo+1)*w]
		clear(out)
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			v, xr := s.val[k], x[s.colIdx[k]*w:][:len(out)]
			for c := range out {
				out[c] += v * xr[c]
			}
		}
	}
}

// mulRangeBatch writes rows [lo,hi) of A·x_r for each of the k
// consecutive length-cols inputs x_r in x into k consecutive windows of
// dst. Each row's entries are loaded once per block of slabBlock inputs,
// whose sums run side by side; every sum takes MulVecRangeInto's terms in
// its order (bit-identical results).
func (s *Sparse) mulRangeBatch(dst, x []float64, k, lo, hi int) {
	var acc [slabBlock]float64
	m := hi - lo
	for r0 := 0; r0 < k; r0 += slabBlock {
		sum := acc[:min(slabBlock, k-r0)]
		xb := x[r0*s.cols : (r0+len(sum))*s.cols]
		for i := lo; i < hi; i++ {
			clear(sum)
			for e := s.rowPtr[i]; e < s.rowPtr[i+1]; e++ {
				v, xs := s.val[e], xb[s.colIdx[e]:]
				for r := range sum {
					sum[r] += v * xs[r*s.cols]
				}
			}
			for r, v := range sum {
				dst[(r0+r)*m+i-lo] = v
			}
		}
	}
}

// mulSlabT writes Aᵀ applied to every column of the rows×w slab y into
// the cols×w slab dst, accumulating in row order as MulVecTInto does. It
// does not skip zero weights: a zero adds ±0 to a sum that starts at +0
// and so is never −0, which changes no bit while the entries are finite.
func (s *Sparse) mulSlabT(dst, y []float64, w int) {
	clear(dst[:s.cols*w])
	for i := 0; i < s.rows; i++ {
		yr := y[i*w : (i+1)*w]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			v, out := s.val[k], dst[s.colIdx[k]*w:][:len(yr)]
			for c := range out {
				out[c] += yr[c] * v
			}
		}
	}
}

// Gram returns the dense AᵀA accumulated row by row in O(Σ nnz(row)²).
func (s *Sparse) Gram() *Matrix {
	out := New(s.cols, s.cols)
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for a := lo; a < hi; a++ {
			ca, va := s.colIdx[a], s.val[a]
			orow := out.Row(ca)
			for b := lo; b < hi; b++ {
				orow[s.colIdx[b]] += va * s.val[b]
			}
		}
	}
	return out
}

// ColNorms2 returns the squared L2 column norms.
func (s *Sparse) ColNorms2() []float64 {
	out := make([]float64, s.cols)
	for k, v := range s.val {
		out[s.colIdx[k]] += v * v
	}
	return out
}

// ColNormsL1 returns the L1 column norms.
func (s *Sparse) ColNormsL1() []float64 {
	out := make([]float64, s.cols)
	for k, v := range s.val {
		out[s.colIdx[k]] += abs64(v)
	}
	return out
}
