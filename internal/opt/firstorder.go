package opt

import (
	"math"

	"adaptivemm/internal/linalg"
)

// FirstOrderOptions tunes the scalable first-order solver.
type FirstOrderOptions struct {
	// Iterations is the number of Adam steps. Default 600.
	Iterations int
	// LearningRate is the initial Adam step size in log-space. Default 0.05.
	LearningRate float64
	// BetaStart and BetaEnd control the log-sum-exp sharpness schedule used
	// to smooth the max-constraint term. Defaults 8 and 400.
	BetaStart, BetaEnd float64
}

func (o FirstOrderOptions) withDefaults() FirstOrderOptions {
	if o.Iterations <= 0 {
		o.Iterations = 600
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.05
	}
	if o.BetaStart <= 0 {
		o.BetaStart = 8
	}
	if o.BetaEnd <= 0 {
		o.BetaEnd = 400
	}
	return o
}

// SolveFirstOrder minimizes the scale-invariant form of the weighting
// program,
//
//	minimize  p·log(max_j (Bᵀu)_j) + log(Σᵢ cᵢ/uᵢᵖ)    over u > 0,
//
// which has the same minimizers (up to scaling) as the constrained program:
// the error of the weighted strategy is sens^p_term × trace_term, and both
// the sensitivity term and the trace term are homogeneous in u. Working in
// log-space (u = e^z) with a log-sum-exp smoothed max keeps the iterates
// positive and the gradient cheap (O(kn) per step), so this solver scales
// to the n = 8192 instances of the paper's Sec 5.2 where forming Newton
// systems would be prohibitive.
//
// The returned vector is normalized so max_j (Bᵀu)_j = 1. Zero-cost
// variables are fixed at zero.
func SolveFirstOrder(p *Program, opts FirstOrderOptions) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	red, idx := p.reduced(1e-14)
	if len(idx) == 0 {
		return make([]float64, len(p.C)), nil
	}
	u := solveFirstOrderActive(red, opts)
	full := make([]float64, len(p.C))
	for r, i := range idx {
		full[i] = u[r]
	}
	p.Normalize(full)
	return full, nil
}

func solveFirstOrderActive(p *Program, opts FirstOrderOptions) []float64 {
	k := len(p.C)
	pw := float64(p.Power)

	// Initialize with the singular-value-bound weighting u_i ∝ c_i^{1/(p+1)},
	// which is the unconstrained optimum of the trace term against the
	// average (rather than max) column norm — the strategy A_l that
	// motivates Theorem 2. It is an excellent warm start.
	z := make([]float64, k)
	for i, c := range p.C {
		z[i] = math.Log(c) / float64(p.Power+1)
	}
	// Center z so u starts O(1).
	var mean float64
	for _, v := range z {
		mean += v
	}
	mean /= float64(k)
	for i := range z {
		z[i] -= mean
	}

	u := make([]float64, k)
	mAdam := make([]float64, k)
	vAdam := make([]float64, k)
	grad := make([]float64, k)
	const b1, b2, eps = 0.9, 0.999, 1e-8

	best := math.Inf(1)
	bestU := make([]float64, k)

	for it := 0; it < opts.Iterations; it++ {
		frac := float64(it) / float64(opts.Iterations-1+1)
		beta := opts.BetaStart * math.Pow(opts.BetaEnd/opts.BetaStart, frac)
		lr := opts.LearningRate * (1 - 0.9*frac)

		for i := range u {
			u[i] = math.Exp(z[i])
		}
		// Constraint values and softmax weights.
		s := linalg.MulVecT(p.B, u)
		maxS := 0.0
		for _, v := range s {
			if v > maxS {
				maxS = v
			}
		}
		var zsum float64
		soft := make([]float64, len(s))
		for j, v := range s {
			soft[j] = math.Exp(beta * (v - maxS) / maxS)
			zsum += soft[j]
		}
		for j := range soft {
			soft[j] /= zsum
		}
		// True (non-smoothed) objective for best-iterate tracking.
		objTrace := p.Objective(u)
		trueObj := pw*math.Log(maxS) + math.Log(objTrace)
		if trueObj < best {
			best = trueObj
			copy(bestU, u)
		}

		// Gradient of p·log smax: p/smax · Σ_j soft_j B_ij u_i ≈ use maxS for
		// smax (smoothing error is absorbed by the schedule).
		bSoft := linalg.MulVec(p.B, soft)
		// Gradient of log Σ c e^{-p z}: -p·c_i u_i^{-p} / Σ.
		for i := range grad {
			grad[i] = pw*bSoft[i]*u[i]/maxS - pw*(p.C[i]/ipow(u[i], p.Power))/objTrace
		}
		// Adam update.
		t := float64(it + 1)
		for i := range z {
			mAdam[i] = b1*mAdam[i] + (1-b1)*grad[i]
			vAdam[i] = b2*vAdam[i] + (1-b2)*grad[i]*grad[i]
			mh := mAdam[i] / (1 - math.Pow(b1, t))
			vh := vAdam[i] / (1 - math.Pow(b2, t))
			z[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
	}
	// Final evaluation of the last iterate.
	for i := range u {
		u[i] = math.Exp(z[i])
	}
	s := linalg.MulVecT(p.B, u)
	maxS := 0.0
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	if obj := pw*math.Log(maxS) + math.Log(p.Objective(u)); obj < best {
		copy(bestU, u)
	}
	return bestU
}
