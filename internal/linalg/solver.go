// Least-squares solvers: x̂ = A⁺y for one fixed strategy A. NewSolver
// picks the cheapest solver the operator admits — a one-pass exact solver
// when A⁺ has a closed form (TreeSolver for interval forests, KronSolver
// through (A₁ ⊗ … ⊗ A_k)⁺ = A₁⁺ ⊗ … ⊗ A_k⁺, EigenSolver through the
// Woodbury identity for an orthogonal eigenbasis whose weights differ
// from one shared value on few rows), a materialized pseudo-inverse for a
// small dense matrix, else iterative CGLS. The choice is made from the
// operator alone, so plans rehydrated from the store need no codec field
// to get the same solver. A BlockSolver joins solvers already in hand
// into the solver of their block-diagonal sum (a sharded plan's).

package linalg

import "fmt"

// LSSolver writes the minimum-norm least-squares solution A⁺y of one
// fixed strategy A into dst, taking its buffers from ws: a warmed call
// allocates nothing, and concurrent calls are safe when each brings its
// own workspace. Only the iterative CGLSSolver, and a BlockSolver over
// one, can fail; a failed solution must not be served.
type LSSolver interface {
	SolveLSInto(dst, y []float64, ws *CGWorkspace) error
}

// NewSolver returns the least-squares solver for op, trying in order: a
// TreeSolver for an interval forest; a KronSolver for a Kronecker
// product whose every factor is an interval forest or has at most
// denseCap cells (solved by its pseudo-inverse); an EigenSolver for a
// factored eigen-design strategy with at most denseCap rows off its
// modal weight (see newEigenSolver); a PinvSolver when op is itself a
// dense matrix with at most denseCap columns; else a CGLSSolver. NormedOp
// wrappers are looked through by the exact solvers. It fails only when
// computing a dense matrix's pseudo-inverse does.
func NewSolver(op Operator, denseCap int) (LSSolver, error) {
	if t, ok := NewTreeSolver(op); ok {
		return t, nil
	}
	if k, ok := newKronSolver(op, denseCap); ok {
		return k, nil
	}
	if e, ok := newEigenSolver(op, denseCap); ok {
		return e, nil
	}
	if d, ok := op.(*Matrix); ok && d.cols <= denseCap {
		return NewPinvSolver(d)
	}
	return &CGLSSolver{Op: op}, nil
}

// newKronSolver returns a KronSolver when op is a Kronecker product whose
// every factor is an interval forest or has at most denseCap cells. A
// nested product takes the dense path, because a nested KronSolver would
// share its parent's pass buffers.
func newKronSolver(op Operator, denseCap int) (*KronSolver, bool) {
	k, ok := unwrapNormed(op).(*KronOp)
	if !ok {
		return nil, false
	}
	s := &KronSolver{op: k, solvers: make([]slabSolver, len(k.factors))}
	for i, f := range k.factors {
		if s.solvers[i], ok = factorSolver(f, denseCap); !ok {
			return nil, false
		}
	}
	s.sampler = newKronSampler(s)
	return s, true
}

// unwrapNormed strips NormedOp wrappers, which only attach column norms.
func unwrapNormed(op Operator) Operator {
	for n, ok := op.(*NormedOp); ok; n, ok = op.(*NormedOp) {
		op = n.Operator
	}
	return op
}

func factorSolver(f Operator, denseCap int) (slabSolver, bool) {
	if t, ok := NewTreeSolver(f); ok {
		return t, true
	}
	if n := f.Cols(); n == 0 || n > denseCap || f.Rows() > MaterializeCap/n {
		return nil, false
	}
	p, err := NewPinvSolver(ToDense(f))
	return p, err == nil
}

// slabSolver solves one factor's least-squares problem for every column
// of a row-major rows×w slab at once, writing the cols×w slab of
// solutions; it never fails.
type slabSolver interface {
	solveSlab(dst, y []float64, w int, ws *CGWorkspace)
}

// KronSolver applies A₁⁺ ⊗ … ⊗ A_k⁺ mode by mode on the transposed
// product's layout (see modeShape.run), each mode through its factor's
// slab solver, and answers A·x by the forward pass over the same rotation.
// Its pass buffers are the workspace's t vector; factor tree solvers use
// r.
type KronSolver struct {
	op      *KronOp
	solvers []slabSolver // TreeSolvers and PinvSolvers
	sampler *kronSampler // nil when a factor is rank-deficient (see sampler.go)
}

// SolveLSInto writes (A₁⁺ ⊗ … ⊗ A_k⁺)·y into dst; it never fails.
func (s *KronSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	if len(y) != s.op.rows || len(dst) != s.op.cols {
		panic(fmt.Sprintf("linalg: KronSolver of a %dx%d strategy given rhs %d, dst %d",
			s.op.rows, s.op.cols, len(y), len(dst)))
	}
	ws.t = growVec(ws.t, s.op.shapes[transposedPass].scratch)
	s.op.shapes[transposedPass].run(dst, y, ws.t, func(i int, out, in []float64, w int) {
		s.solvers[i].solveSlab(out, in, w, ws)
	})
	return nil
}

// AnswerInto writes the strategy answers (A₁ ⊗ … ⊗ A_k)·x into dst
// (length Rows) by the forward pass: tree factors through their
// bottom-up slab pass, the others through their operator's slab product.
// A warmed call allocates nothing.
func (s *KronSolver) AnswerInto(dst, x []float64, ws *CGWorkspace) {
	if len(x) != s.op.cols || len(dst) != s.op.rows {
		panic(fmt.Sprintf("linalg: KronSolver of a %dx%d strategy given x %d, dst %d",
			s.op.rows, s.op.cols, len(x), len(dst)))
	}
	ws.t = growVec(ws.t, s.op.shapes[forwardPass].scratch)
	fibers := ws.t[2*s.op.shapes[forwardPass].stage:]
	s.op.shapes[forwardPass].run(dst, x, ws.t, func(i int, out, in []float64, w int) {
		if t, ok := s.solvers[i].(*TreeSolver); ok {
			t.answerSlab(out, in, w)
			return
		}
		f := s.op.factors[i]
		mulSlabRange(f, out, in, w, 0, f.Rows(), fibers)
	})
}

// PinvSolver solves through a materialized Moore-Penrose pseudo-inverse:
// an O(n³) preparation, then one cols×rows product per solve.
type PinvSolver struct {
	// Pinv is A⁺, the artifact a plan store persists so a rehydrated
	// mechanism skips the preparation.
	Pinv *Matrix
}

// NewPinvSolver computes the pseudo-inverse of a.
func NewPinvSolver(a *Matrix) (*PinvSolver, error) {
	p, err := PseudoInverse(a)
	if err != nil {
		return nil, err
	}
	return &PinvSolver{Pinv: p}, nil
}

// SolveLSInto writes A⁺y into dst; it never fails.
func (p *PinvSolver) SolveLSInto(dst, y []float64, _ *CGWorkspace) error {
	p.Pinv.MulVecInto(dst, y)
	return nil
}

// solveSlab writes A⁺ applied to every column of the slab y into dst.
func (p *PinvSolver) solveSlab(dst, y []float64, w int, _ *CGWorkspace) {
	p.Pinv.mulSlabRange(dst, y, w, 0, p.Pinv.rows)
}

// BlockSolver solves a block-diagonal strategy block by block, through
// (A₁ ⊕ … ⊕ A_k)⁺ = A₁⁺ ⊕ … ⊕ A_k⁺: each block's own solver maps its
// slice of y to its slice of dst. The blocks run one after another on
// the caller's one workspace, so a warmed solve allocates nothing.
type BlockSolver struct {
	op      Operator   // BlockDiag(parts...)
	parts   []Operator // the diagonal blocks, in order
	solvers []LSSolver // solvers[i] solves parts[i]
}

// NewBlockSolver pairs each diagonal block with its solver, in order;
// the solver's strategy is BlockDiag(parts...). The solvers are used as
// given, so nothing is prepared twice.
func NewBlockSolver(parts []Operator, solvers []LSSolver) *BlockSolver {
	if len(parts) != len(solvers) {
		panic(fmt.Sprintf("linalg: NewBlockSolver given %d blocks and %d solvers", len(parts), len(solvers)))
	}
	return &BlockSolver{op: BlockDiag(parts...), parts: parts, solvers: solvers}
}

// Op returns the block-diagonal strategy the solver inverts.
func (b *BlockSolver) Op() Operator { return b.op }

// SolveLSInto writes (A₁⁺ ⊕ … ⊕ A_k⁺)·y into dst. It fails only when a
// block's solver does, naming the block.
func (b *BlockSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	if len(y) != b.op.Rows() || len(dst) != b.op.Cols() {
		panic(fmt.Sprintf("linalg: BlockSolver of a %dx%d strategy given rhs %d, dst %d",
			b.op.Rows(), b.op.Cols(), len(y), len(dst)))
	}
	atR, atC := 0, 0
	for i, p := range b.parts {
		rows, cols := p.Rows(), p.Cols()
		if err := b.solvers[i].SolveLSInto(dst[atC:atC+cols], y[atR:atR+rows], ws); err != nil {
			return fmt.Errorf("linalg: block %d: %w", i, err)
		}
		atR += rows
		atC += cols
	}
	return nil
}

// CGLSSolver solves matrix-free by SolveCGLSInto with default options:
// the solver for a strategy with no exact solver that is not a small
// dense matrix. It fails with ErrCGNotConverged or ErrCGDiverged.
type CGLSSolver struct {
	Op Operator
}

// SolveLSInto writes the CGLS solution of min ‖Ax − y‖₂ into dst.
func (c *CGLSSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	return SolveCGLSInto(c.Op, y, dst, CGOptions{}, ws)
}
