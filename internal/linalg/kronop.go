package linalg

// KronOp is the Kronecker product A₁ ⊗ A₂ ⊗ … ⊗ A_k of arbitrary
// operators, evaluated factor by factor without ever materializing the
// product: a matvec costs Σᵢ (Πⱼ<ᵢ mⱼ)·(Πⱼ>ᵢ nⱼ) factor matvecs instead of
// Π mᵢ · Π nᵢ work. Row and column ordering match the dense Kronecker
// construction (first factor is most significant).
type KronOp struct {
	factors []Operator
	rows    int
	cols    int
	// stage is the longest intermediate tensor of a mode-by-mode pass;
	// modesLen = 2·stage + max mᵢ + max nᵢ is the scratch such a pass
	// needs (see modes). scratch holds max(kronRangeLen, modesLen)
	// values: the forward slabs and fibers, or the transpose's two
	// ping-pong tensors and its fibers.
	stage    int
	modesLen int
	scratch  *vecPool
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
	maxM, maxN := 0, 0
	for _, f := range factors {
		rows *= f.Rows()
		cols *= f.Cols()
		maxM, maxN = max(maxM, f.Rows()), max(maxN, f.Cols())
	}
	// Before transposed factor i the tensor is (n₁…nᵢ₋₁)·mᵢ·(mᵢ₊₁…m_k);
	// every stage but the last writes scratch (the last writes dst).
	stage, left := 0, 1
	for i, f := range factors[:len(factors)-1] {
		left *= f.Cols()
		stage = max(stage, left*kronDim(factors[i+1:], Operator.Rows))
	}
	o := &KronOp{factors: factors, rows: rows, cols: cols, stage: stage, modesLen: 2*stage + maxM + maxN}
	o.scratch = newVecPool(max(kronRangeLen(factors), o.modesLen))
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
	n1 := f.Cols()
	r1a, r1b := lo/mRest, (hi-1)/mRest+1
	k := r1b - r1a
	// slabs[(r1-r1a)*nRest+q] = (A₁·x[·,q])[r1]: one factor range product
	// per trailing column, shared by every covered leading row.
	slabs, ws := ws[:k*nRest], ws[k*nRest:]
	buf, ws := ws[:n1], ws[n1:]
	out, ws := ws[:k], ws[k:]
	for q := 0; q < nRest; q++ {
		for j := 0; j < n1; j++ {
			buf[j] = x[j*nRest+q]
		}
		f.MulVecRangeInto(out, buf, r1a, r1b)
		for i, v := range out {
			slabs[i*nRest+q] = v
		}
	}
	for r1 := r1a; r1 < r1b; r1++ {
		slabLo := r1 * mRest
		a, b := max(lo, slabLo), min(hi, slabLo+mRest)
		z := slabs[(r1-r1a)*nRest : (r1-r1a+1)*nRest]
		kronRange(rest, dst[a-lo:b-lo], z, a-slabLo, b-slabLo, ws)
	}
}

// MulVecTInto applies the factors' transposes mode by mode (see modes).
func (o *KronOp) MulVecTInto(dst, y []float64) {
	checkMulVecLen(o, len(y), o.rows, true)
	checkMulVecLen(o, len(dst), o.cols, true)
	s := o.scratch.get()
	defer o.scratch.put(s)
	o.modes(dst, y, *s, func(i int, out, in []float64) {
		o.factors[i].MulVecTInto(out, in)
	})
}

// modes applies one linear map per factor, mode by mode: before mode i
// the working tensor has shape (n₁…nᵢ₋₁) × mᵢ × (mᵢ₊₁…m_k), where mᵢ × nᵢ
// is factor i's shape, and apply(i, out, in) maps each length-mᵢ fiber
// of the middle mode to a length-nᵢ fiber. Intermediate tensors
// alternate between two stage-long halves of ws, the fibers sit after
// them (ws holds modesLen values), and the last mode writes dst.
func (o *KronOp) modes(dst, y, ws []float64, apply func(i int, out, in []float64)) {
	factors, stage := o.factors, o.stage
	fibers := ws[2*stage:]
	cur := y
	left := 1
	for fi, f := range factors {
		m, n := f.Rows(), f.Cols()
		right := kronDim(factors[fi+1:], Operator.Rows)
		next := dst
		if fi < len(factors)-1 {
			next = ws[(fi%2)*stage:][:left*n*right]
		}
		in, out := fibers[:m], fibers[m:m+n]
		for l := 0; l < left; l++ {
			for r := 0; r < right; r++ {
				base := l * m * right
				for j := 0; j < m; j++ {
					in[j] = cur[base+j*right+r]
				}
				apply(fi, out, in)
				obase := l * n * right
				for i := 0; i < n; i++ {
					next[obase+i*right+r] = out[i]
				}
			}
		}
		cur = next
		left *= n
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
