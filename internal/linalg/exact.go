// Exact least squares: x̂ = A⁺y in one pass for strategies whose
// pseudo-inverse has a closed form. TreeSolver handles interval forests;
// KronSolver uses (A₁ ⊗ … ⊗ A_k)⁺ = A₁⁺ ⊗ … ⊗ A_k⁺. Both are detected
// from the operator, so plans rehydrated from the store need no codec
// field to use them.

package linalg

import "fmt"

// LSSolver writes the minimum-norm least-squares solution A⁺y of one
// fixed strategy A into dst, taking its buffers from ws: a warmed call
// allocates nothing, and concurrent calls are safe when each brings its
// own workspace.
type LSSolver interface {
	SolveLSInto(dst, y []float64, ws *CGWorkspace)
}

// NewExactSolver returns an exact solver for op, looking through
// NormedOp: a TreeSolver for an interval forest, or a KronSolver for a
// Kronecker product whose every factor is an interval forest or has at
// most denseCap cells (solved by its dense pseudo-inverse; a nested
// product takes this path, because a nested KronSolver would share its
// parent's pass buffers). It reports false when none applies.
func NewExactSolver(op Operator, denseCap int) (LSSolver, bool) {
	if t, ok := NewTreeSolver(op); ok {
		return t, true
	}
	k, ok := unwrapNormed(op).(*KronOp)
	if !ok {
		return nil, false
	}
	s := &KronSolver{op: k, solvers: make([]LSSolver, len(k.factors))}
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

func factorSolver(f Operator, denseCap int) (LSSolver, bool) {
	if t, ok := NewTreeSolver(f); ok {
		return t, true
	}
	if n := f.Cols(); n == 0 || n > denseCap || f.Rows() > MaterializeCap/n {
		return nil, false
	}
	p, err := PseudoInverse(ToDense(f))
	return pinvSolver{p}, err == nil
}

// KronSolver applies A₁⁺ ⊗ … ⊗ A_k⁺ mode by mode on the transposed
// product's layout (see KronOp.modes), each mode through its factor's
// solver. Its pass buffers are the workspace's t vector; factor tree
// solvers use r.
type KronSolver struct {
	op      *KronOp
	solvers []LSSolver
}

// SolveLSInto writes (A₁⁺ ⊗ … ⊗ A_k⁺)·y into dst.
func (s *KronSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) {
	if len(y) != s.op.rows || len(dst) != s.op.cols {
		panic(fmt.Sprintf("linalg: KronSolver of a %dx%d strategy given rhs %d, dst %d",
			s.op.rows, s.op.cols, len(y), len(dst)))
	}
	ws.t = growVec(ws.t, s.op.modesLen)
	s.op.modes(dst, y, ws.t, func(i int, out, in []float64) {
		s.solvers[i].SolveLSInto(out, in, ws)
	})
}

type pinvSolver struct{ pinv *Matrix }

func (p pinvSolver) SolveLSInto(dst, y []float64, _ *CGWorkspace) { p.pinv.MulVecInto(dst, y) }
