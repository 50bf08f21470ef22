package opt

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
)

// The interior-point solver's fixed settings.
const (
	// barrierTol is the duality-gap target: the barrier loop stops when
	// (#constraints)/t < barrierTol.
	barrierTol = 1e-7
	// barrierMu multiplies the barrier parameter per outer iteration.
	barrierMu = 10
	// barrierMaxNewton bounds Newton iterations per outer step.
	barrierMaxNewton = 50
	// barrierMaxOuter bounds outer barrier iterations.
	barrierMaxOuter = 40
)

// ErrInfeasible is returned when no strictly feasible starting point can be
// constructed (e.g. a constraint column of B is all zero while every cost
// is zero, or B has an empty row set).
var ErrInfeasible = errors.New("opt: could not construct a strictly feasible starting point")

// SolveBarrier minimizes the program with a log-barrier interior-point
// method and returns the full-length solution vector u (zero-cost variables
// are fixed at zero). The result is normalized so max_j (Bᵀu)_j = 1.
func SolveBarrier(p *Program) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	red, idx := p.reduced(1e-14)
	if len(idx) == 0 {
		return make([]float64, len(p.C)), nil
	}
	u, err := solveBarrierActive(red)
	if err != nil {
		return nil, err
	}
	full := make([]float64, len(p.C))
	for r, i := range idx {
		full[i] = u[r]
	}
	p.Normalize(full)
	return full, nil
}

// solveBarrierActive runs the barrier method on a program whose costs are
// all strictly positive.
func solveBarrierActive(p *Program) ([]float64, error) {
	k := len(p.C)
	n := p.B.Cols()

	// Strictly feasible start: u = α·1 with α chosen so Bᵀu ≤ 1/2.
	colSums := linalg.MulVecT(p.B, ones(k))
	var maxSum float64
	for _, v := range colSums {
		if v > maxSum {
			maxSum = v
		}
	}
	if maxSum <= 0 {
		return nil, ErrInfeasible
	}
	u := make([]float64, k)
	for i := range u {
		u[i] = 0.5 / maxSum
	}

	nConstraints := float64(n + k)
	// Initial t: balance barrier against objective magnitude.
	t := 1.0
	if obj := p.Objective(u); obj > 0 && !math.IsInf(obj, 1) {
		t = math.Max(1, nConstraints/obj)
	}

	// One slack buffer serves every Newton and line-search step.
	slackBuf := make([]float64, n)
	for outer := 0; outer < barrierMaxOuter; outer++ {
		if err := newtonCenter(p, u, t, slackBuf); err != nil {
			return nil, err
		}
		if nConstraints/t < barrierTol {
			break
		}
		t *= barrierMu
	}
	return u, nil
}

// newtonCenter minimizes φ_t(u) = t·f(u) − Σ log s_j − Σ log u_i for fixed
// t, updating u in place. slackBuf (length B.Cols()) holds the slack of
// the step being evaluated.
func newtonCenter(p *Program, u []float64, t float64, slackBuf []float64) error {
	k := len(p.C)
	n := p.B.Cols()
	pw := float64(p.Power)

	for iter := 0; iter < barrierMaxNewton; iter++ {
		s := slack(slackBuf, p, u)
		for _, v := range s {
			if v <= 0 {
				return fmt.Errorf("opt: interior point left the feasible region (slack %g)", v)
			}
		}
		// Gradient.
		grad := make([]float64, k)
		invS := make([]float64, n)
		for j, v := range s {
			invS[j] = 1 / v
		}
		bInvS := linalg.MulVec(p.B, invS) // (B · 1/s)_i = Σ_j B_ij / s_j
		for i := range grad {
			grad[i] = -pw*t*p.C[i]/ipow(u[i], p.Power+1) + bInvS[i] - 1/u[i]
		}
		// Hessian: diag part + B diag(1/s²) Bᵀ.
		hess := linalg.New(k, k)
		for i := 0; i < k; i++ {
			hess.Set(i, i, pw*(pw+1)*t*p.C[i]/ipow(u[i], p.Power+2)+1/(u[i]*u[i]))
		}
		// Accumulate B diag(1/s²) Bᵀ (symmetric).
		w := make([]float64, n)
		for j := range w {
			w[j] = invS[j] * invS[j]
		}
		addWeightedGram(hess, p.B, w)

		// Newton step: solve H Δ = -grad.
		neg := make([]float64, k)
		for i := range neg {
			neg[i] = -grad[i]
		}
		step, err := linalg.SolveSPD(hess, neg)
		if err != nil {
			return err
		}
		// Newton decrement: λ² = -gradᵀΔ (for convex φ this is ≥ 0).
		var dec float64
		for i := range step {
			dec += -grad[i] * step[i]
		}
		if dec < 0 {
			dec = 0
		}
		if dec/2 < 1e-10 {
			return nil
		}
		// Backtracking line search keeping strict feasibility.
		alpha := maxFeasibleStep(p, u, step)
		phi0 := barrierValue(p, u, t, slackBuf)
		gdotd := -dec
		for ; alpha > 1e-14; alpha *= 0.5 {
			cand := axpy(u, step, alpha)
			if !strictlyFeasible(p, cand, slackBuf) {
				continue
			}
			if barrierValue(p, cand, t, slackBuf) <= phi0+0.25*alpha*gdotd {
				copy(u, cand)
				break
			}
		}
		if alpha <= 1e-14 {
			// No progress possible; treat as converged at this t.
			return nil
		}
	}
	return nil
}

// slack writes 1 - Bᵀu into s (length B.Cols()) and returns it.
func slack(s []float64, p *Program, u []float64) []float64 {
	linalg.MulVecTInto(p.B, s, u)
	for j := range s {
		s[j] = 1 - s[j]
	}
	return s
}

func strictlyFeasible(p *Program, u, slackBuf []float64) bool {
	for _, v := range u {
		if v <= 0 {
			return false
		}
	}
	for _, v := range slack(slackBuf, p, u) {
		if v <= 0 {
			return false
		}
	}
	return true
}

// maxFeasibleStep returns a step length ≤ 1 that keeps u positive, leaving
// the slack check to the line search.
func maxFeasibleStep(p *Program, u, step []float64) float64 {
	alpha := 1.0
	for i := range u {
		if step[i] < 0 {
			if a := -0.99 * u[i] / step[i]; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}

func barrierValue(p *Program, u []float64, t float64, slackBuf []float64) float64 {
	v := t * p.Objective(u)
	if math.IsInf(v, 1) {
		return v
	}
	for _, x := range u {
		if x <= 0 {
			return math.Inf(1)
		}
		v -= math.Log(x)
	}
	for _, x := range slack(slackBuf, p, u) {
		if x <= 0 {
			return math.Inf(1)
		}
		v -= math.Log(x)
	}
	return v
}

// addWeightedGram adds B diag(w) Bᵀ to the symmetric matrix h in place.
func addWeightedGram(h *linalg.Matrix, b *linalg.Matrix, w []float64) {
	k := b.Rows()
	for i := 0; i < k; i++ {
		bi := b.Row(i)
		hrow := h.Row(i)
		for j := i; j < k; j++ {
			bj := b.Row(j)
			var s float64
			for l, wl := range w {
				if bi[l] != 0 && bj[l] != 0 {
					s += wl * bi[l] * bj[l]
				}
			}
			hrow[j] += s
			if i != j {
				h.Set(j, i, h.At(j, i)+s)
			}
		}
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func axpy(u, step []float64, alpha float64) []float64 {
	out := make([]float64, len(u))
	for i := range u {
		out[i] = u[i] + alpha*step[i]
	}
	return out
}
