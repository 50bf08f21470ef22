// Operator abstraction: matrix-free linear operators.
//
// A query workload, a strategy, or a Gram matrix can be a dense Matrix, a
// CSR Sparse matrix, an analytic structured form (Identity, Prefix,
// Intervals), or a Kronecker product of any of these. The mechanism
// runtime needs only matrix-vector products (see SolveCGLS for the
// matrix-free least-squares inference that replaces the dense
// pseudo-inverse past small n), so the representation is a pluggable
// choice and the reachable domain is not capped by O(n²) dense memory.
//
// Every product writes into a caller-owned buffer; into.go states the
// contract and holds the allocating MulVec / MulVecT helpers.
//
// Representation guide:
//
//   - *Matrix — explicit rows. Right for small or unstructured operators;
//     the only form that supports the dense factorizations (LU, Cholesky,
//     SymEigen, PseudoInverse).
//   - *Sparse — CSR. Right for tree/hierarchical strategies and other
//     operators with few nonzeros per row.
//   - Eye, NewPrefixOp, NewIntervalsOp — O(1)-memory analytic forms with
//     O(rows) matvecs and closed-form Gram matrices / column norms.
//   - NewKronOp — Kronecker product of per-dimension operators; the
//     workhorse for multi-dimensional workloads (a multi-dimensional range
//     is the product of per-dimension intervals).
//   - StackOps, ScaleRows, PermuteRows, ScaleOp — structural combinators
//     used to assemble strategies (weighting, completion) without
//     materializing them.
//
// Optional capability interfaces (Grammer, ColNorms2er, ColNormsL1er) let a
// representation expose analytic shortcuts; the OperatorGram /
// OperatorColNorms2 / OperatorColNormsL1 helpers fall back to probing the
// operator with basis vectors when a shortcut is missing.

package linalg

import (
	"fmt"
	"math"
)

// MaterializeCap is the shared budget, in matrix entries (rows × cols),
// above which the package's consumers refuse to materialize a structured
// operator or workload as a dense Matrix. It bounds transparent
// conversions only — matrix-free answering has no size cap.
const MaterializeCap = 8 << 20

// Operator is a real linear map R^cols → R^rows presented through
// matrix-vector products that write into a caller-owned dst.
// Implementations must not retain or modify the input slice, and dst must
// not alias it. Each representation writes its forward loop once, in
// MulVecRangeInto; MulVecInto is that loop over [0, Rows()).
type Operator interface {
	// Rows returns the output dimension m.
	Rows() int
	// Cols returns the input dimension n.
	Cols() int
	// MulVecInto writes A·x into dst. len(dst) must be Rows() and len(x)
	// must be Cols().
	MulVecInto(dst, x []float64)
	// MulVecTInto writes Aᵀ·y into dst. len(dst) must be Cols() and
	// len(y) must be Rows().
	MulVecTInto(dst, y []float64)
	// MulVecRangeInto writes rows [lo,hi) of A·x into dst[:hi-lo].
	// len(x) must be Cols(), 0 ≤ lo ≤ hi ≤ Rows() and len(dst) ≥ hi-lo.
	MulVecRangeInto(dst, x []float64, lo, hi int)
}

// Grammer is implemented by operators that can produce their dense Gram
// matrix AᵀA analytically (or at least cheaply).
type Grammer interface {
	Gram() *Matrix
}

// ColNorms2er is implemented by operators that know their squared L2 column
// norms (the diagonal of AᵀA) without materializing anything.
type ColNorms2er interface {
	ColNorms2() []float64
}

// ColNormsL1er is implemented by operators that know their L1 column norms.
type ColNormsL1er interface {
	ColNormsL1() []float64
}

// ToDense materializes an operator as a dense Matrix by probing it with
// basis vectors (one product per column). The dense representation itself
// is returned unchanged. Use only when rows*cols is affordable.
func ToDense(op Operator) *Matrix {
	if m, ok := op.(*Matrix); ok {
		return m
	}
	rows, cols := op.Rows(), op.Cols()
	out := New(rows, cols)
	e := make([]float64, cols)
	col := make([]float64, rows)
	for j := 0; j < cols; j++ {
		e[j] = 1
		op.MulVecInto(col, e)
		e[j] = 0
		for i, v := range col {
			out.data[i*cols+j] = v
		}
	}
	return out
}

// OperatorGram returns the dense Gram matrix AᵀA of an operator, using the
// Grammer shortcut when available and basis-vector probing otherwise
// (cols forward/transposed product pairs). Dense matrices use the blocked
// GramParallel.
func OperatorGram(op Operator) *Matrix {
	if m, ok := op.(*Matrix); ok {
		return m.GramParallel()
	}
	if g, ok := op.(Grammer); ok {
		return g.Gram()
	}
	n := op.Cols()
	out := New(n, n)
	e := make([]float64, n)
	mid := make([]float64, op.Rows())
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		op.MulVecInto(mid, e)
		op.MulVecTInto(col, mid)
		e[j] = 0
		for i, v := range col {
			out.data[i*n+j] = v
		}
	}
	return out
}

// OperatorColNorms2 returns the squared L2 column norms of an operator,
// via the ColNorms2er / Grammer shortcuts or by probing columns.
func OperatorColNorms2(op Operator) []float64 {
	if m, ok := op.(*Matrix); ok {
		return m.ColNorms2()
	}
	if c, ok := op.(ColNorms2er); ok {
		return c.ColNorms2()
	}
	if g, ok := op.(Grammer); ok {
		gm := g.Gram()
		out := make([]float64, gm.Cols())
		for j := range out {
			out[j] = gm.At(j, j)
		}
		return out
	}
	return probeColNorms(op, func(v float64) float64 { return v * v })
}

// OperatorColNormsL1 returns the L1 column norms of an operator, via the
// ColNormsL1er shortcut or by probing columns.
func OperatorColNormsL1(op Operator) []float64 {
	if m, ok := op.(*Matrix); ok {
		return m.ColNormsL1()
	}
	if c, ok := op.(ColNormsL1er); ok {
		return c.ColNormsL1()
	}
	return probeColNorms(op, abs64)
}

// probeColNorms returns Σᵢ f(A_ij) for every column j, probing one basis
// vector at a time through a reused column buffer.
func probeColNorms(op Operator, f func(float64) float64) []float64 {
	n := op.Cols()
	out := make([]float64, n)
	e := make([]float64, n)
	col := make([]float64, op.Rows())
	for j := 0; j < n; j++ {
		e[j] = 1
		op.MulVecInto(col, e)
		e[j] = 0
		var s float64
		for _, v := range col {
			s += f(v)
		}
		out[j] = s
	}
	return out
}

// MaxColNorm2Op returns the L2 sensitivity ‖A‖₂ of an operator.
func MaxColNorm2Op(op Operator) float64 {
	var best float64
	for _, s := range OperatorColNorms2(op) {
		if s > best {
			best = s
		}
	}
	return sqrtNonNeg(best)
}

// MaxColNormL1Op returns the L1 sensitivity ‖A‖₁ of an operator.
func MaxColNormL1Op(op Operator) float64 {
	var best float64
	for _, v := range OperatorColNormsL1(op) {
		if v > best {
			best = v
		}
	}
	return best
}

// --- Identity ---

// IdentityOp is the n×n identity as an O(1)-memory operator.
type IdentityOp struct{ n int }

// Eye returns the n×n identity operator.
func Eye(n int) *IdentityOp { return &IdentityOp{n: n} }

// Rows returns n.
func (o *IdentityOp) Rows() int { return o.n }

// Cols returns n.
func (o *IdentityOp) Cols() int { return o.n }

// MulVecInto copies x into dst.
func (o *IdentityOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.n) }

// MulVecRangeInto copies the matching window of x.
func (o *IdentityOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.n, false)
	copy(dst, x[lo:hi])
}

// MulVecTInto copies y into dst.
func (o *IdentityOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.n, true)
	checkMulVecLen(o, len(dst), o.n, true)
	copy(dst, y)
}

// Gram returns the identity matrix.
func (o *IdentityOp) Gram() *Matrix { return Identity(o.n) }

// ColNorms2 returns all ones.
func (o *IdentityOp) ColNorms2() []float64 { return onesVec(o.n) }

// ColNormsL1 returns all ones.
func (o *IdentityOp) ColNormsL1() []float64 { return onesVec(o.n) }

// --- Prefix ---

// PrefixOp is the n×n lower-triangular all-ones matrix: query i sums cells
// 0..i (the CDF workload). Matvecs are O(n) running sums.
type PrefixOp struct{ n int }

// NewPrefixOp returns the n-cell prefix-sum (CDF) operator.
func NewPrefixOp(n int) *PrefixOp { return &PrefixOp{n: n} }

// Rows returns n.
func (o *PrefixOp) Rows() int { return o.n }

// Cols returns n.
func (o *PrefixOp) Cols() int { return o.n }

// MulVecInto writes the running sums of x into dst.
func (o *PrefixOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.n) }

// MulVecRangeInto re-accumulates the running sum through the skipped
// prefix x[0:lo] in left-to-right order, so a mid-stream chunk holds the
// same bits as the matching rows of the full product.
func (o *PrefixOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.n, false)
	var s float64
	for i := 0; i < lo; i++ {
		s += x[i]
	}
	for i := lo; i < hi; i++ {
		s += x[i]
		dst[i-lo] = s
	}
}

// MulVecTInto writes the reverse running sums of y into dst: cell j is
// counted by queries j..n-1.
func (o *PrefixOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.n, true)
	checkMulVecLen(o, len(dst), o.n, true)
	var s float64
	for j := o.n - 1; j >= 0; j-- {
		s += y[j]
		dst[j] = s
	}
}

// Gram returns the analytic Gram matrix: G_ij = n − max(i,j).
func (o *PrefixOp) Gram() *Matrix {
	g := New(o.n, o.n)
	for i := 0; i < o.n; i++ {
		row := g.Row(i)
		for j := range row {
			m := i
			if j > m {
				m = j
			}
			row[j] = float64(o.n - m)
		}
	}
	return g
}

// ColNorms2 returns n−j for column j.
func (o *PrefixOp) ColNorms2() []float64 {
	out := make([]float64, o.n)
	for j := range out {
		out[j] = float64(o.n - j)
	}
	return out
}

// ColNormsL1 equals ColNorms2 for a 0/1 matrix.
func (o *PrefixOp) ColNormsL1() []float64 { return o.ColNorms2() }

// --- Intervals (1-D all-range) ---

// IntervalsOp is the d(d+1)/2 × d matrix of all contiguous interval sums
// [lo,hi] over d cells, rows ordered lo-major then hi ascending (matching
// the explicit all-range construction). Matvecs run in O(rows) via
// running sums and difference arrays — the full matrix, with O(d³)
// nonzeros, is never formed.
type IntervalsOp struct{ d int }

// NewIntervalsOp returns the 1-D all-range operator over d cells.
func NewIntervalsOp(d int) *IntervalsOp { return &IntervalsOp{d: d} }

// Rows returns d(d+1)/2.
func (o *IntervalsOp) Rows() int { return o.d * (o.d + 1) / 2 }

// Cols returns d.
func (o *IntervalsOp) Cols() int { return o.d }

// MulVecInto answers every interval query into dst.
func (o *IntervalsOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.Rows()) }

// MulVecRangeInto walks the lo-major interval blocks, skipping whole
// blocks before the range. Each block keeps a running sum over hi in
// ascending-cell order, re-accumulated from the block start when the
// range begins mid-block, so chunk boundaries never change a bit.
func (o *IntervalsOp) MulVecRangeInto(dst, x []float64, rlo, rhi int) {
	checkRowRange(o, rlo, rhi, len(dst))
	checkMulVecLen(o, len(x), o.d, false)
	r := 0
	for qlo := 0; qlo < o.d && r < rhi; qlo++ {
		blockLen := o.d - qlo
		if r+blockLen <= rlo {
			r += blockLen // block entirely before the range
			continue
		}
		var s float64
		for qhi := qlo; qhi < o.d; qhi++ {
			s += x[qhi]
			if r >= rlo {
				dst[r-rlo] = s
			}
			r++
			if r >= rhi {
				return
			}
		}
	}
}

// MulVecTInto scatters each interval weight onto its cells via a
// difference array kept inside dst itself: the d+1-th difference cell is
// never read by the prefix pass, so dst[0:d] suffices, and the prefix pass
// reads each dst[j] before overwriting it.
func (o *IntervalsOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.Rows(), true)
	checkMulVecLen(o, len(dst), o.d, true)
	for j := range dst {
		dst[j] = 0
	}
	r := 0
	for lo := 0; lo < o.d; lo++ {
		for hi := lo; hi < o.d; hi++ {
			v := y[r]
			r++
			if v == 0 {
				continue
			}
			dst[lo] += v
			if hi+1 < o.d {
				dst[hi+1] -= v
			}
		}
	}
	var s float64
	for j := 0; j < o.d; j++ {
		s += dst[j]
		dst[j] = s
	}
}

// Gram returns the analytic Gram matrix: entry (i,j) counts intervals
// containing both cells, (min(i,j)+1)·(d−max(i,j)).
func (o *IntervalsOp) Gram() *Matrix {
	d := o.d
	g := New(d, d)
	for i := 0; i < d; i++ {
		row := g.Row(i)
		for j := range row {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			row[j] = float64((lo + 1) * (d - hi))
		}
	}
	return g
}

// ColNorms2 returns (j+1)(d−j): the number of intervals covering cell j.
func (o *IntervalsOp) ColNorms2() []float64 {
	out := make([]float64, o.d)
	for j := range out {
		out[j] = float64((j + 1) * (o.d - j))
	}
	return out
}

// ColNormsL1 equals ColNorms2 for a 0/1 matrix.
func (o *IntervalsOp) ColNormsL1() []float64 { return o.ColNorms2() }

// --- Structural combinators ---

// StackOp is the vertical concatenation of operators over the same column
// space.
type StackOp struct {
	parts []Operator
	rows  int
	cols  int
	tmp   *vecPool // Cols(): a later part's transposed product
}

// StackOps stacks the rows of the given operators, in order. All parts must
// share the same Cols. A single part is returned unchanged.
func StackOps(parts ...Operator) Operator {
	if len(parts) == 0 {
		panic("linalg: StackOps of nothing")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	cols := parts[0].Cols()
	rows := 0
	for _, p := range parts {
		if p.Cols() != cols {
			panic(fmt.Sprintf("linalg: StackOps column mismatch %d vs %d", p.Cols(), cols))
		}
		rows += p.Rows()
	}
	return &StackOp{parts: parts, rows: rows, cols: cols, tmp: newVecPool(cols)}
}

// Rows returns the total row count.
func (o *StackOp) Rows() int { return o.rows }

// Cols returns the shared column count.
func (o *StackOp) Cols() int { return o.cols }

// MulVecInto applies each part into its slice of dst.
func (o *StackOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.rows) }

// MulVecRangeInto routes the range to the overlapped parts, each
// answering its part-relative sub-range.
func (o *StackOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.cols, false)
	at := 0
	for _, p := range o.parts {
		rows := p.Rows()
		a, b := max(at, lo), min(at+rows, hi)
		if a < b {
			p.MulVecRangeInto(dst[a-lo:b-lo], x, a-at, b-at)
		}
		at += rows
		if at >= hi {
			return
		}
	}
}

// MulVecTInto accumulates the parts' transposed products: the first part
// writes dst directly, later parts go through pooled scratch.
func (o *StackOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	s := o.tmp.get()
	defer o.tmp.put(s)
	tmp := *s
	at := 0
	for i, p := range o.parts {
		yp := y[at : at+p.Rows()]
		at += p.Rows()
		if i == 0 {
			p.MulVecTInto(dst, yp)
			continue
		}
		p.MulVecTInto(tmp, yp)
		for j, v := range tmp {
			dst[j] += v
		}
	}
}

// Gram returns the sum of the parts' Gram matrices. The first part's Gram
// is cloned before accumulating: a Grammer is allowed to return a retained
// matrix, which the in-place sum must not corrupt.
func (o *StackOp) Gram() *Matrix {
	out := OperatorGram(o.parts[0]).Clone()
	for _, p := range o.parts[1:] {
		g := OperatorGram(p)
		for i, v := range g.data {
			out.data[i] += v
		}
	}
	return out
}

// ColNorms2 sums the parts' squared column norms.
func (o *StackOp) ColNorms2() []float64 {
	out := make([]float64, o.cols)
	for _, p := range o.parts {
		for j, v := range OperatorColNorms2(p) {
			out[j] += v
		}
	}
	return out
}

// ColNormsL1 sums the parts' L1 column norms.
func (o *StackOp) ColNormsL1() []float64 {
	out := make([]float64, o.cols)
	for _, p := range o.parts {
		for j, v := range OperatorColNormsL1(p) {
			out[j] += v
		}
	}
	return out
}

// ScaledOp is s·A for a scalar s.
type ScaledOp struct {
	base Operator
	s    float64
}

// ScaleOp returns the operator s·A.
func ScaleOp(base Operator, s float64) *ScaledOp { return &ScaledOp{base: base, s: s} }

// Rows returns the base row count.
func (o *ScaledOp) Rows() int { return o.base.Rows() }

// Cols returns the base column count.
func (o *ScaledOp) Cols() int { return o.base.Cols() }

// MulVecInto writes s·(A x) into dst.
func (o *ScaledOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.Rows()) }

// MulVecRangeInto scales the base range by s.
func (o *ScaledOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	o.base.MulVecRangeInto(dst, x, lo, hi)
	for i := range dst[:hi-lo] {
		dst[i] *= o.s
	}
}

// MulVecTInto writes s·(Aᵀ y) into dst.
func (o *ScaledOp) MulVecTInto(dst, y []float64) {
	o.base.MulVecTInto(dst, y)
	for i := range dst {
		dst[i] *= o.s
	}
}

// Gram returns s²·(AᵀA).
func (o *ScaledOp) Gram() *Matrix { return OperatorGram(o.base).Scale(o.s * o.s) }

// ColNorms2 returns s²·colnorms²(A). The base's slice may be a retained
// cache (NormedOp), so scale a copy.
func (o *ScaledOp) ColNorms2() []float64 {
	return scaleVec(append([]float64(nil), OperatorColNorms2(o.base)...), o.s*o.s)
}

// ColNormsL1 returns |s|·colnormsL1(A), scaling a copy like ColNorms2.
func (o *ScaledOp) ColNormsL1() []float64 {
	return scaleVec(append([]float64(nil), OperatorColNormsL1(o.base)...), abs64(o.s))
}

// RowScaledOp is diag(scale)·A: row i of the base operator multiplied by
// scale[i]. It is how weighted strategies Λ·Q are represented without
// materializing the product.
type RowScaledOp struct {
	base   Operator
	scale  []float64
	scaled *vecPool // Rows(): diag(scale)·y for the transpose
}

// ScaleRows returns diag(scale)·A. len(scale) must equal A.Rows().
func ScaleRows(base Operator, scale []float64) *RowScaledOp {
	if len(scale) != base.Rows() {
		panic(fmt.Sprintf("linalg: ScaleRows length %d for %d rows", len(scale), base.Rows()))
	}
	return &RowScaledOp{base: base, scale: scale, scaled: newVecPool(len(scale))}
}

// Rows returns the base row count.
func (o *RowScaledOp) Rows() int { return o.base.Rows() }

// Cols returns the base column count.
func (o *RowScaledOp) Cols() int { return o.base.Cols() }

// MulVecInto writes diag(scale)·(A x) into dst.
func (o *RowScaledOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.Rows()) }

// MulVecRangeInto scales the base range by the matching scale window.
func (o *RowScaledOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	o.base.MulVecRangeInto(dst, x, lo, hi)
	for i, s := range o.scale[lo:hi] {
		dst[i] *= s
	}
}

// MulVecTInto writes Aᵀ·(diag(scale) y) into dst, staging the scaled y in
// pooled scratch (the base transpose cannot take dst as its input).
func (o *RowScaledOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.Rows(), true)
	s := o.scaled.get()
	defer o.scaled.put(s)
	scaled := *s
	for i, v := range y {
		scaled[i] = v * o.scale[i]
	}
	o.base.MulVecTInto(dst, scaled)
}

// RowPermutedOp selects (and reorders) rows of a base operator: row i of
// the result is row perm[i] of the base. perm may be shorter than the base
// row count (a row subset).
type RowPermutedOp struct {
	base Operator
	perm []int
	// full stages the base product, Rows() of the base long. It is nil
	// for an identity base, whose product is its input bit for bit, so
	// row selections (shard projections) gather from x directly.
	full *vecPool
}

// PermuteRows returns the operator whose i-th row is base row perm[i].
func PermuteRows(base Operator, perm []int) *RowPermutedOp {
	for _, p := range perm {
		if p < 0 || p >= base.Rows() {
			panic(fmt.Sprintf("linalg: PermuteRows index %d out of %d rows", p, base.Rows()))
		}
	}
	o := &RowPermutedOp{base: base, perm: perm}
	if _, ok := base.(*IdentityOp); !ok {
		o.full = newVecPool(base.Rows())
	}
	return o
}

// Rows returns len(perm).
func (o *RowPermutedOp) Rows() int { return len(o.perm) }

// Cols returns the base column count.
func (o *RowPermutedOp) Cols() int { return o.base.Cols() }

// MulVecInto computes the base product and gathers the selected rows.
func (o *RowPermutedOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, len(o.perm)) }

// MulVecRangeInto gathers the selected rows of the window from the full
// base product (the permutation makes the range non-contiguous in the
// base).
func (o *RowPermutedOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.base.Cols(), false)
	src := x
	if o.full != nil {
		s := o.full.get()
		defer o.full.put(s)
		src = *s
		o.base.MulVecInto(src, x)
	}
	for i, p := range o.perm[lo:hi] {
		dst[i] = src[p]
	}
}

// MulVecTInto scatters y into base row positions and applies the base
// transpose.
func (o *RowPermutedOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), len(o.perm), true)
	checkMulVecLen(o, len(dst), o.base.Cols(), true)
	full := dst
	if o.full != nil {
		s := o.full.get()
		defer o.full.put(s)
		full = *s
	}
	for i := range full {
		full[i] = 0
	}
	for i, p := range o.perm {
		full[p] += y[i]
	}
	if o.full != nil {
		o.base.MulVecTInto(dst, full)
	}
}

// NormedOp wraps an operator with precomputed column norms, letting
// assembled strategies (whose norms are known from the weighting program)
// skip the generic probing fallback. Its products are the wrapped
// operator's.
type NormedOp struct {
	Operator
	cn2 []float64
	cn1 []float64
}

// WithColNorms attaches known column norms to an operator. Either slice
// may be nil to leave that norm to the generic helpers.
func WithColNorms(op Operator, colNorms2, colNormsL1 []float64) *NormedOp {
	return &NormedOp{Operator: op, cn2: colNorms2, cn1: colNormsL1}
}

// ColNorms2 returns the attached squared column norms (or probes). A copy
// is returned so callers cannot corrupt the cache.
func (o *NormedOp) ColNorms2() []float64 {
	if o.cn2 != nil {
		return append([]float64(nil), o.cn2...)
	}
	return OperatorColNorms2(o.Operator)
}

// ColNormsL1 returns a copy of the attached L1 column norms (or probes).
func (o *NormedOp) ColNormsL1() []float64 {
	if o.cn1 != nil {
		return append([]float64(nil), o.cn1...)
	}
	return OperatorColNormsL1(o.Operator)
}

// Gram delegates to the wrapped operator.
func (o *NormedOp) Gram() *Matrix { return OperatorGram(o.Operator) }

func onesVec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func scaleVec(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
