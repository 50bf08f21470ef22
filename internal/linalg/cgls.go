package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrCGDiverged is returned when an iterative solve produces non-finite
// values (an ill-posed operator or catastrophically scaled input).
var ErrCGDiverged = errors.New("linalg: conjugate-gradient iteration diverged")

// ErrCGNotConverged is returned, wrapped with the iteration count and
// the relative residual reached, when a CGLS solve runs out of MaxIter
// before meeting its tolerance: its iterate is not the least-squares
// solution and must not be served as one.
var ErrCGNotConverged = errors.New("linalg: conjugate-gradient iteration did not converge")

// CGOptions tunes the iterative least-squares solvers.
type CGOptions struct {
	// Tol is the relative stopping tolerance on ‖Aᵀr‖ (CGLS) or ‖r‖ (CG),
	// measured against the initial value. Default 1e-13.
	Tol float64
	// MaxIter caps the iteration count. Default 4·cols + 50 — CGLS
	// converges in at most cols steps in exact arithmetic; the slack
	// absorbs rounding on ill-conditioned strategies.
	MaxIter int
}

func (o CGOptions) withDefaults(n int) CGOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-13
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4*n + 50
	}
	return o
}

// CGWorkspace holds the iteration vectors of the workspace-based solvers
// so a steady-state caller (one release after another on the same
// mechanism) allocates them once and reuses them. The zero value is ready
// to use; buffers grow on demand and are retained at their high-water
// mark. A workspace must not be shared by concurrent solves.
type CGWorkspace struct {
	r []float64 // residual (rows for CGLS, n for symmetric CG)
	s []float64 // Aᵀr / rhs scratch (cols)
	p []float64 // search direction (cols / n)
	q []float64 // A·p (rows) or G·p (n)
	t []float64 // extra pass state (Kronecker solver passes)
}

// growVec returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SolveCGLSInto solves the least-squares problem min ‖Ax − b‖₂ by
// conjugate gradients on the normal equations in factored form (CGLS /
// CGNR), writing the solution into dst (length a.Cols()) with
// caller-owned scratch. Only products are used, so A may be any Operator
// — this is the matrix-free inference path for structured strategies
// without an exact solver — and the steady state allocates nothing.
// Starting from x₀ = 0 the iterates stay in range(Aᵀ), so for
// rank-deficient A the result converges to the minimum-norm
// least-squares solution A⁺b, matching PseudoInverse. A solve that runs
// out of MaxIter returns ErrCGNotConverged.
func SolveCGLSInto(a Operator, b, dst []float64, o CGOptions, ws *CGWorkspace) error {
	if len(b) != a.Rows() {
		panic(fmt.Sprintf("linalg: SolveCGLSInto rhs length %d, want %d", len(b), a.Rows()))
	}
	rows, n := a.Rows(), a.Cols()
	if len(dst) != n {
		panic(fmt.Sprintf("linalg: SolveCGLSInto dst length %d, want %d", len(dst), n))
	}
	o = o.withDefaults(n)

	x := dst
	for i := range x {
		x[i] = 0
	}
	ws.r = growVec(ws.r, rows)
	r := ws.r
	copy(r, b) // r = b − A x
	ws.s = growVec(ws.s, n)
	s := ws.s
	MulVecTInto(a, s, r) // s = Aᵀ r
	ws.p = growVec(ws.p, n)
	p := ws.p
	copy(p, s)
	ws.q = growVec(ws.q, rows)
	q := ws.q
	gamma := dot(s, s)
	if gamma == 0 {
		return nil // b ⟂ range(A): least-squares solution is 0
	}
	gamma0 := gamma
	tol2 := o.Tol * o.Tol * gamma
	for it := 0; it < o.MaxIter; it++ {
		MulVecInto(a, q, p)
		qq := dot(q, q)
		if qq == 0 {
			return nil // p in the null space; nothing further to gain
		}
		alpha := gamma / qq
		for i := range x {
			x[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * q[i]
		}
		MulVecTInto(a, s, r)
		gammaNew := dot(s, s)
		if math.IsNaN(gammaNew) || math.IsInf(gammaNew, 0) {
			return ErrCGDiverged
		}
		if gammaNew <= tol2 {
			return nil
		}
		beta := gammaNew / gamma
		for i := range p {
			p[i] = s[i] + beta*p[i]
		}
		gamma = gammaNew
	}
	return fmt.Errorf("%w: %d iterations, relative residual ‖Aᵀr‖/‖Aᵀb‖ = %.3g",
		ErrCGNotConverged, o.MaxIter, math.Sqrt(gamma/gamma0))
}

// SolveNormalCG solves (AᵀA)·x = b by plain conjugate gradients with the
// Gram product evaluated as MulVecT(MulVec(·)). b must lie in range(AᵀA)
// for an exact solution; it is used for per-query variance computation
// wᵢᵀ(AᵀA)⁺wᵢ without forming a pseudo-inverse.
func SolveNormalCG(a Operator, b []float64, o CGOptions) ([]float64, error) {
	x := make([]float64, a.Cols())
	mid := make([]float64, a.Rows())
	err := symCGInto(func(gp, p []float64) {
		MulVecInto(a, mid, p)
		MulVecTInto(a, gp, mid)
	}, b, x, o, &CGWorkspace{})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// symCGInto is the shared plain-CG core for a symmetric positive-
// semidefinite map presented as a write-into matvec. Starting from x₀ = 0
// the iterates stay in the Krylov span of b, so for consistent systems the
// result converges to the minimum-norm solution.
func symCGInto(matvec func(dst, p []float64), b, dst []float64, o CGOptions, ws *CGWorkspace) error {
	n := len(b)
	if len(dst) != n {
		panic(fmt.Sprintf("linalg: symCG dst length %d, want %d", len(dst), n))
	}
	o = o.withDefaults(n)

	x := dst
	for i := range x {
		x[i] = 0
	}
	ws.r = growVec(ws.r, n)
	r := ws.r
	copy(r, b)
	ws.p = growVec(ws.p, n)
	p := ws.p
	copy(p, r)
	ws.q = growVec(ws.q, n)
	gp := ws.q
	rr := dot(r, r)
	if rr == 0 {
		return nil
	}
	tol2 := o.Tol * o.Tol * rr
	for it := 0; it < o.MaxIter; it++ {
		matvec(gp, p)
		pgp := dot(p, gp)
		if pgp <= 0 {
			break // numerical null-space direction
		}
		alpha := rr / pgp
		for i := range x {
			x[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * gp[i]
		}
		rrNew := dot(r, r)
		if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
			return ErrCGDiverged
		}
		if rrNew <= tol2 {
			return nil
		}
		for i := range p {
			p[i] = r[i] + (rrNew/rr)*p[i]
		}
		rr = rrNew
	}
	return nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
