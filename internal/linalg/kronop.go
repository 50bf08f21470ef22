package linalg

import "slices"

// KronOp is the Kronecker product A₁ ⊗ A₂ ⊗ … ⊗ A_k of arbitrary
// operators, evaluated factor by factor without ever materializing the
// product: a matvec costs Σᵢ (Πⱼ<ᵢ mⱼ)·(Πⱼ>ᵢ nⱼ) factor matvecs instead of
// Π mᵢ · Π nᵢ work. Row and column ordering match the dense Kronecker
// construction (first factor is most significant). Each factor is applied
// to a whole slab of fibers at once (see mulSlabRange and mulSlabT).
type KronOp struct {
	factors []Operator
	rows    int
	cols    int
	// shapes[p] is the shape of a mode-by-mode pass in direction p (see
	// modeShape). scratch holds max(kronRangeLen,
	// shapes[transposedPass].scratch) values: the range product's slabs
	// and fibers, or the transposed pass's two stage-long tensors and its
	// fibers. The forward pass runs only in KronSolver.AnswerInto, on the
	// caller's workspace.
	shapes  [2]modeShape
	scratch *vecPool
}

// pass is the direction of a mode-by-mode pass (see modeShape): a transposed
// pass maps each factor's rows to its columns (Aᵀ, and A⁺ in a solve), a
// forward pass its columns to its rows (A).
type pass int

const (
	transposedPass pass = iota
	forwardPass
)

// in is the dimension of a factor a mode of the pass consumes.
func (p pass) in(f Operator) int {
	if p == forwardPass {
		return f.Cols()
	}
	return f.Rows()
}

// out is the dimension of a factor a mode of the pass produces.
func (p pass) out(f Operator) int {
	if p == forwardPass {
		return f.Rows()
	}
	return f.Cols()
}

// NewKronOp returns the Kronecker product of the factors, in order. A
// single factor is returned unchanged; zero factors panic.
func NewKronOp(factors ...Operator) Operator {
	if len(factors) == 0 {
		panic("linalg: NewKronOp of nothing")
	}
	if len(factors) == 1 {
		return factors[0]
	}
	rows, cols := 1, 1
	for _, f := range factors {
		rows *= f.Rows()
		cols *= f.Cols()
	}
	o := &KronOp{factors: factors, rows: rows, cols: cols}
	for _, p := range []pass{transposedPass, forwardPass} {
		in, out := make([]int, len(factors)), make([]int, len(factors))
		for i, f := range factors {
			in[i], out[i] = p.in(f), p.out(f)
		}
		o.shapes[p] = newModeShape(in, out)
	}
	o.scratch = newVecPool(max(kronRangeLen(factors), o.shapes[transposedPass].scratch))
	return o
}

// kronDim is the product of one dimension over the factors.
func kronDim(factors []Operator, dim func(Operator) int) int {
	p := 1
	for _, f := range factors {
		p *= dim(f)
	}
	return p
}

// Factors returns the underlying factors.
func (o *KronOp) Factors() []Operator { return o.factors }

// Rows returns Π mᵢ.
func (o *KronOp) Rows() int { return o.rows }

// Cols returns Π nᵢ.
func (o *KronOp) Cols() int { return o.cols }

// MulVecInto writes the full product into dst.
func (o *KronOp) MulVecInto(dst, x []float64) { o.MulVecRangeInto(dst, x, 0, o.rows) }

// MulVecRangeInto answers rows [lo,hi) of the Kronecker product by
// recursing on the leading factor: the covered leading rows r₁ select
// slabs z[q] = (A₁·x[·,q])[r₁] of the first mode application, and the
// remaining factors answer their sub-range of each slab. Scratch is
// bounded by the slab count × the trailing column product and the factor
// dimensions, never by the total row count.
func (o *KronOp) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(o, lo, hi, len(dst))
	checkMulVecLen(o, len(x), o.cols, false)
	s := o.scratch.get()
	defer o.scratch.put(s)
	kronRange(o.factors, dst, x, lo, hi, *s)
}

// kronRangeLen is the scratch kronRange needs for any range: per leading
// factor, the slabs of all its rows plus one input and one output fiber.
func kronRangeLen(factors []Operator) int {
	n := 0
	for i, f := range factors[:len(factors)-1] {
		n += f.Rows()*kronDim(factors[i+1:], Operator.Cols) + f.Cols() + f.Rows()
	}
	return n
}

// kronRange answers rows [lo,hi) of the Kronecker product of factors
// applied to x (length Π cols), carving its intermediates out of ws
// (at least kronRangeLen(factors) long).
func kronRange(factors []Operator, dst, x []float64, lo, hi int, ws []float64) {
	if lo >= hi {
		return
	}
	f := factors[0]
	if len(factors) == 1 {
		f.MulVecRangeInto(dst, x, lo, hi)
		return
	}
	rest := factors[1:]
	mRest, nRest := kronDim(rest, Operator.Rows), kronDim(rest, Operator.Cols)
	r1a, r1b := lo/mRest, (hi-1)/mRest+1
	k := r1b - r1a
	// slabs[(r1-r1a)*nRest+q] = (A₁·x[·,q])[r1]: one slab product of the
	// covered leading rows over x as an n₁×nRest slab, shared by every
	// covered leading row. A full product is the range [0,rows), so every
	// window computes each slab entry the same way.
	slabs, ws := ws[:k*nRest], ws[k*nRest:]
	mulSlabRange(f, slabs, x, nRest, r1a, r1b, ws)
	each := func(from, to int) {
		for r1 := from; r1 < to; r1++ {
			slabLo := r1 * mRest
			a, b := max(lo, slabLo), min(hi, slabLo+mRest)
			z := slabs[(r1-r1a)*nRest : (r1-r1a+1)*nRest]
			kronRange(rest, dst[a-lo:b-lo], z, a-slabLo, b-slabLo, ws)
		}
	}
	// When one factor is left, the leading rows whose every trailing row
	// is covered, [full0, full1), share the window [0, mRest) and take
	// it in one batch.
	full0, full1 := (lo+mRest-1)/mRest, hi/mRest
	if len(rest) > 1 || full0 >= full1 {
		each(r1a, r1b)
		return
	}
	each(r1a, full0)
	out := dst[full0*mRest-lo : full1*mRest-lo]
	z := slabs[(full0-r1a)*nRest : (full1-r1a)*nRest]
	mulRangeBatch(rest[0], out, z, full1-full0, 0, mRest)
	each(full1, r1b)
}

// MulVecTInto applies the factors' transposes mode by mode (see modeShape.run).
func (o *KronOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	s := o.scratch.get()
	defer o.scratch.put(s)
	fibers := (*s)[2*o.shapes[transposedPass].stage:]
	o.shapes[transposedPass].run(dst, y, *s, func(i int, out, in []float64, w int) {
		mulSlabT(o.factors[i], out, in, w, fibers)
	})
}

// modeShape is the shape of a mode-by-mode pass over a Kronecker
// product of linear maps (see run): mode i consumes in[i] values per
// fiber and produces out[i]. stage is the longest tensor the pass
// produces before its last mode, which writes dst, and scratch =
// 2·stage + max in + max out is the workspace a pass needs.
type modeShape struct {
	in, out        []int
	stage, scratch int
}

// newModeShape returns the shape of the pass whose modes map in[i] to
// out[i] values per fiber.
func newModeShape(in, out []int) modeShape {
	s := modeShape{in: in, out: out}
	// After mode i the tensor holds (out₁…outᵢ)·(inᵢ₊₁…in_k) values.
	left := 1
	for i := range in[:len(in)-1] {
		left *= out[i]
		s.stage = max(s.stage, left*prod(in[i+1:]))
	}
	s.scratch = 2*s.stage + slices.Max(in) + slices.Max(out)
	return s
}

// prod is the product of dims.
func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

// run applies one linear map per mode, each to the leading axis of the
// working tensor. Before mode i the tensor has shape inᵢ × (inᵢ₊₁…in_k ·
// out₁…outᵢ₋₁), an inᵢ×w slab whose w columns are the mode's fibers;
// apply(i, out, in, w) maps it to the outᵢ×w slab out, and one blocked
// transpose rotates that to w×outᵢ, so mode i+1's axis leads and mode
// i's axis trails. After k modes the axes are back in their original
// order out₁…out_k. apply writes the second stage-long half of ws, the
// transpose the first (the last one writes dst); ws holds s.scratch
// values, the fibers a column adapter needs sitting after the halves.
//
// A wide last mode (its out_k×w output longer than a stage) runs over
// blocks of as many columns as the free half holds with their output:
// each block is gathered into the free half, mapped and transposed into
// its rows of dst, so the scratch never holds the output. A block of one
// column maps straight into its row of dst.
func (s *modeShape) run(dst, src, ws []float64, apply func(i int, out, in []float64, w int)) {
	last := len(s.in) - 1
	stage := s.stage
	rotated, applied := ws[:stage], ws[stage:2*stage]
	cur := src
	left := 1
	for i, m := range s.in {
		n := s.out[i]
		w := prod(s.in[i+1:]) * left
		if i == last && n*w > stage {
			bw := max(1, stage/(m+n))
			for c0 := 0; c0 < w; c0 += bw {
				b := min(bw, w-c0)
				in, rows := applied[:m*b], dst[c0*n:(c0+b)*n]
				for j := 0; j < m; j++ {
					copy(in[j*b:(j+1)*b], cur[j*w+c0:])
				}
				if b == 1 {
					apply(i, rows, in, 1)
					continue
				}
				out := applied[m*b : (m+n)*b]
				apply(i, out, in, b)
				transposeInto(rows, out, n, b)
			}
			return
		}
		out := applied[:n*w]
		apply(i, out, cur, w)
		next := dst
		if i < last {
			next = rotated[:n*w]
		}
		transposeInto(next, out, n, w)
		cur = next
		left *= n
	}
}

// transposeBlock is the tile side of transposeInto: a 16×16 tile of
// float64 reads and writes 16 cache lines each.
const transposeBlock = 16

// transposeInto writes the r×c row-major src into dst as c×r, tile by
// tile so both sides stream whole cache lines. Within a tile it copies
// four source rows per pass, so each destination row takes four
// contiguous writes; leftover rows go one at a time.
func transposeInto(dst, src []float64, r, c int) {
	for i0 := 0; i0 < r; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, r)
		for j0 := 0; j0 < c; j0 += transposeBlock {
			j1 := min(j0+transposeBlock, c)
			i := i0
			for ; i+4 <= i1; i += 4 {
				s0 := src[i*c+j0 : i*c+j1]
				s1 := src[(i+1)*c+j0:][:len(s0)]
				s2 := src[(i+2)*c+j0:][:len(s0)]
				s3 := src[(i+3)*c+j0:][:len(s0)]
				at := j0*r + i
				for j := range s0 {
					d := dst[at : at+4 : at+4]
					d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
					at += r
				}
			}
			for ; i < i1; i++ {
				at := j0*r + i
				for _, v := range src[i*c+j0 : i*c+j1] {
					dst[at] = v
					at += r
				}
			}
		}
	}
}

// Slab products. A slab is a row-major m×w block whose w columns are
// fibers of a Kronecker tensor; a factor applied to a slab maps every
// column at once. Sparse and dense factors have slab kernels that stream
// whole rows of the slab and equal their vector kernels column by column
// bit for bit; other factor kinds go through byColumn.

// slabBlock is the column block of the slab kernels that keep state per
// column (the dense row kernel's partial sums, a tree solve's node
// values, the sparse batch's sums): wide enough to stream whole cache
// lines, small enough that the state stays in L1.
const slabBlock = 32

// mulSlabRange writes rows [lo,hi) of f applied to every column of the
// f.Cols()×w slab x into the (hi-lo)×w slab dst. fibers (at least
// f.Cols()+hi-lo long) serves the column adapter.
func mulSlabRange(f Operator, dst, x []float64, w, lo, hi int, fibers []float64) {
	switch g := unwrapNormed(f).(type) {
	case *Sparse:
		g.mulSlabRange(dst, x, w, lo, hi)
	case *Matrix:
		g.mulSlabRange(dst, x, w, lo, hi)
	default:
		byColumn(dst, x, f.Cols(), hi-lo, w, fibers, func(out, in []float64) {
			f.MulVecRangeInto(out, in, lo, hi)
		})
	}
}

// mulSlabT writes fᵀ applied to every column of the f.Rows()×w slab y
// into the f.Cols()×w slab dst. fibers (at least f.Rows()+f.Cols() long)
// serves the column adapter.
func mulSlabT(f Operator, dst, y []float64, w int, fibers []float64) {
	switch g := unwrapNormed(f).(type) {
	case *Sparse:
		g.mulSlabT(dst, y, w)
	case *Matrix:
		g.mulSlabT(dst, y, w)
	default:
		byColumn(dst, y, f.Rows(), f.Cols(), w, fibers, f.MulVecTInto)
	}
}

// mulRangeBatch answers rows [lo,hi) of f for each of the k consecutive
// length-f.Cols() inputs in x, writing k consecutive windows of hi-lo
// answers into dst: f.MulVecRangeInto on each input, batched for sparse
// factors.
func mulRangeBatch(f Operator, dst, x []float64, k, lo, hi int) {
	if s, ok := unwrapNormed(f).(*Sparse); ok {
		s.mulRangeBatch(dst, x, k, lo, hi)
		return
	}
	n, m := f.Cols(), hi-lo
	for r := 0; r < k; r++ {
		f.MulVecRangeInto(dst[r*m:(r+1)*m], x[r*n:(r+1)*n], lo, hi)
	}
}

// byColumn maps every column of the m×w slab in to a column of the n×w
// slab out through a vector kernel, gathering each column into the first
// m values of fibers and scattering the kernel's result from the next n:
// the slab path of factor kinds that have no slab kernel.
func byColumn(out, in []float64, m, n, w int, fibers []float64, kernel func(out, in []float64)) {
	fin, fout := fibers[:m], fibers[m:m+n]
	for c := 0; c < w; c++ {
		for j := range fin {
			fin[j] = in[j*w+c]
		}
		kernel(fout, fin)
		for i, v := range fout {
			out[i*w+c] = v
		}
	}
}

// Gram returns the dense Kronecker product of the factors' Gram matrices
// (Gram distributes over ⊗). Use only when Cols() is affordable.
func (o *KronOp) Gram() *Matrix {
	grams := make([]*Matrix, len(o.factors))
	for i, f := range o.factors {
		grams[i] = OperatorGram(f)
	}
	return KroneckerAll(grams...)
}

// ColNorms2 is the outer product of the factors' squared column norms
// (entries of a Kronecker product multiply).
func (o *KronOp) ColNorms2() []float64 {
	parts := make([][]float64, len(o.factors))
	for i, f := range o.factors {
		parts[i] = OperatorColNorms2(f)
	}
	return outerAll(parts)
}

// ColNormsL1 is the outer product of the factors' L1 column norms.
func (o *KronOp) ColNormsL1() []float64 {
	parts := make([][]float64, len(o.factors))
	for i, f := range o.factors {
		parts[i] = OperatorColNormsL1(f)
	}
	return outerAll(parts)
}

// outerAll flattens the outer product of the given vectors with the first
// vector most significant, matching Kronecker index order.
func outerAll(parts [][]float64) []float64 {
	out := []float64{1}
	for _, p := range parts {
		next := make([]float64, len(out)*len(p))
		for i, a := range out {
			base := i * len(p)
			for j, b := range p {
				next[base+j] = a * b
			}
		}
		out = next
	}
	return out
}

// Compile-time interface checks for the operator suite.
var (
	_ = []Operator{
		(*Matrix)(nil), (*IdentityOp)(nil), (*PrefixOp)(nil), (*IntervalsOp)(nil),
		(*Sparse)(nil), (*KronOp)(nil), (*StackOp)(nil), (*BlockDiagOp)(nil),
		(*ScaledOp)(nil), (*RowScaledOp)(nil), (*RowPermutedOp)(nil),
		(*NormedOp)(nil), (*ComposedOp)(nil),
	}
	_ = []Grammer{
		(*Matrix)(nil), (*IdentityOp)(nil), (*PrefixOp)(nil), (*IntervalsOp)(nil),
		(*Sparse)(nil), (*KronOp)(nil), (*StackOp)(nil), (*ScaledOp)(nil), (*NormedOp)(nil),
	}
)
