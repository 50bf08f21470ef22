// Least-squares solvers: x̂ = A⁺y for one fixed strategy A. NewSolver
// picks the cheapest solver the operator admits — a one-pass exact solver
// when A⁺ has a closed form (TreeSolver for interval forests, KronSolver
// through (A₁ ⊗ … ⊗ A_k)⁺ = A₁⁺ ⊗ … ⊗ A_k⁺, EigenSolver through the
// Woodbury identity for an orthogonal eigenbasis whose weights differ
// from one shared value on few rows), a materialized pseudo-inverse for a
// small dense matrix, else iterative CGLS. The choice is made from the
// operator alone, so plans rehydrated from the store need no codec field
// to get the same solver.

package linalg

import "fmt"

// LSSolver writes the minimum-norm least-squares solution A⁺y of one
// fixed strategy A into dst, taking its buffers from ws: a warmed call
// allocates nothing, and concurrent calls are safe when each brings its
// own workspace. Only the iterative CGLSSolver can fail; its failed
// solution must not be served.
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
// product's layout (see KronOp.modes), each mode through its factor's
// slab solver. Its pass buffers are the workspace's t vector; factor tree
// solvers use r.
type KronSolver struct {
	op      *KronOp
	solvers []slabSolver // TreeSolvers and PinvSolvers
}

// SolveLSInto writes (A₁⁺ ⊗ … ⊗ A_k⁺)·y into dst; it never fails.
func (s *KronSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	if len(y) != s.op.rows || len(dst) != s.op.cols {
		panic(fmt.Sprintf("linalg: KronSolver of a %dx%d strategy given rhs %d, dst %d",
			s.op.rows, s.op.cols, len(y), len(dst)))
	}
	ws.t = growVec(ws.t, s.op.modesLen)
	s.op.modes(dst, y, ws.t, func(i int, out, in []float64, w int) {
		s.solvers[i].solveSlab(out, in, w, ws)
	})
	return nil
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
