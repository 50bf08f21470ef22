// Fixture for intoalias: write-into kernels called with a destination
// that provably aliases an input. Exercises both the method form (which
// matches any operator/solver receiver) and the real linalg
// package-level kernels.

package intofixture

import "adaptivemm/internal/linalg"

type fakeOp struct{}

func (fakeOp) MulVecInto(dst, x []float64) {}

func (fakeOp) MulVecRangeInto(dst, x []float64, lo, hi int) {}

func methods(o fakeOp, dst, x []float64) {
	o.MulVecInto(dst, x)
	o.MulVecInto(x, x)   // want `destination x aliases input`
	o.MulVecInto((x), x) // want `destination x aliases input`
	o.MulVecRangeInto(dst, x, 0, 1)
	o.MulVecRangeInto(x, x, 0, 1) // want `destination x aliases input`
}

func solvers(s linalg.LSSolver, dst, y []float64, ws *linalg.CGWorkspace) {
	s.SolveLSInto(dst, y, ws)
	s.SolveLSInto(y, y, ws) // want `destination y aliases input`
}

func funcs(op linalg.Operator, dst, x []float64) {
	linalg.MulVecInto(op, dst, x)
	linalg.MulVecInto(op, x, x) // want `destination x aliases input`
	linalg.MulVecRangeInto(op, dst, x, 0, 1)
	linalg.MulVecRangeInto(op, x, x, 0, 1) // want `destination x aliases input`
}
