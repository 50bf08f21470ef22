// Package opt implements the convex optimization machinery behind the
// paper's optimal query weighting problem (Program 1). The reference
// implementation used cvxopt's dsdp semidefinite solver; here the 2x2
// semidefinite blocks [[uᵢ,1],[1,vᵢ]] ⪰ 0 are eliminated analytically
// (at the optimum vᵢ = 1/uᵢ), which reduces the SDP to the smooth convex
// program
//
//	minimize   Σᵢ cᵢ / uᵢᵖ
//	subject to Bᵀu ≤ 1  (entrywise),  u > 0
//
// solved with a log-barrier interior-point method (Newton steps with
// backtracking line search). A scalable first-order solver on the
// equivalent scale-invariant objective is provided for large instances.
//
// For the (ε,δ) / L2 setting of the paper, p = 1 and uᵢ = λᵢ² where λᵢ is
// the weight of design query i, and B = Q∘Q (entrywise square of the design
// matrix) so that (Bᵀu)ⱼ is the squared L2 norm of column j of the weighted
// strategy. For the ε / L1 variant (Sec 3.5), p = 2, uᵢ = λᵢ and B = |Q|,
// so (Bᵀu)ⱼ is the L1 norm of column j.
package opt

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
)

// Program is an optimal query weighting problem instance.
type Program struct {
	// C holds the nonnegative costs c_i, one per design query. For the
	// eigen design these are the eigenvalues of WᵀW (Theorem 1 with
	// orthonormal design queries).
	C []float64
	// B is the k x n constraint matrix with nonnegative entries; column j
	// constrains the (squared, for p=1) norm of strategy column j.
	B *linalg.Matrix
	// Power is the exponent p in the objective Σ c_i/u_i^p: 1 for the
	// L2/Gaussian setting, 2 for the L1/Laplace variant.
	Power int
}

// Validate checks structural invariants of the program.
func (p *Program) Validate() error {
	if p.B == nil {
		return errors.New("opt: nil constraint matrix")
	}
	if len(p.C) != p.B.Rows() {
		return fmt.Errorf("opt: %d costs for %d constraint rows", len(p.C), p.B.Rows())
	}
	if p.Power != 1 && p.Power != 2 {
		return fmt.Errorf("opt: unsupported power %d", p.Power)
	}
	for i, c := range p.C {
		if c < 0 || math.IsNaN(c) {
			return fmt.Errorf("opt: invalid cost c[%d] = %g", i, c)
		}
	}
	for i := 0; i < p.B.Rows(); i++ {
		for _, v := range p.B.Row(i) {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("opt: negative or NaN entry in constraint row %d", i)
			}
		}
	}
	return nil
}

// Objective evaluates Σ c_i/u_i^p. Variables with zero cost contribute
// nothing regardless of u_i; variables with positive cost and u_i <= 0
// yield +Inf.
func (p *Program) Objective(u []float64) float64 {
	var s float64
	for i, c := range p.C {
		if c == 0 {
			continue
		}
		if u[i] <= 0 {
			return math.Inf(1)
		}
		s += c / ipow(u[i], p.Power)
	}
	return s
}

// MaxConstraint returns max_j (Bᵀu)_j.
func (p *Program) MaxConstraint(u []float64) float64 {
	s := linalg.MulVecT(p.B, u)
	var best float64
	for _, v := range s {
		if v > best {
			best = v
		}
	}
	return best
}

// Feasible reports whether u is strictly positive on active variables and
// satisfies Bᵀu ≤ 1 + tol.
func (p *Program) Feasible(u []float64, tol float64) bool {
	for i, c := range p.C {
		if c > 0 && u[i] <= 0 {
			return false
		}
	}
	return p.MaxConstraint(u) <= 1+tol
}

// active returns the indices with positive cost; inactive variables are
// fixed to zero in solutions (a zero-cost design query carries no workload
// weight, matching the paper's treatment of zero eigenvalues in Sec 4.1).
func (p *Program) active(tol float64) []int {
	var maxC float64
	for _, c := range p.C {
		if c > maxC {
			maxC = c
		}
	}
	var idx []int
	for i, c := range p.C {
		if c > tol*maxC {
			idx = append(idx, i)
		}
	}
	return idx
}

// reduced returns the sub-program over the active variables together with
// the index mapping back to the full variable vector.
func (p *Program) reduced(tol float64) (*Program, []int) {
	idx := p.active(tol)
	if len(idx) == len(p.C) {
		return p, idx
	}
	c := make([]float64, len(idx))
	b := linalg.New(len(idx), p.B.Cols())
	for r, i := range idx {
		c[r] = p.C[i]
		copy(b.Row(r), p.B.Row(i))
	}
	return &Program{C: c, B: b, Power: p.Power}, idx
}

// Normalize scales u (in place) so the largest constraint equals exactly 1,
// maximizing information subject to the sensitivity budget. It returns u.
// A zero vector is returned unchanged.
func (p *Program) Normalize(u []float64) []float64 {
	m := p.MaxConstraint(u)
	if m <= 0 {
		return u
	}
	s := 1 / m
	for i := range u {
		u[i] *= s
	}
	return u
}

func ipow(x float64, p int) float64 {
	switch p {
	case 1:
		return x
	case 2:
		return x * x
	default:
		return math.Pow(x, float64(p))
	}
}
