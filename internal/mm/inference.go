package mm

import (
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// EstimateGaussianNonNegative runs one private release like
// EstimateGaussian but post-processes the least-squares estimate with
// non-negativity: cell counts cannot be negative, and projecting the
// estimate onto the non-negative orthant (in the least-squares metric of
// the strategy) never hurts and often helps substantially on sparse or
// skewed data. Post-processing of a differentially private output incurs
// no privacy cost. The projection is computed by projected gradient
// descent on ‖Ax − y‖² over x ≥ 0.
func (m *Mechanism) EstimateGaussianNonNegative(x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(x) != m.a.Cols() {
		return nil, fmt.Errorf("mm: data vector has %d cells, strategy expects %d", len(x), m.a.Cols())
	}
	sigma := p.GaussianSigma(m.sensL2)
	y := linalg.MulVec(m.a, x)
	addNormal(r, y, sigma)
	// Warm start from the unconstrained least-squares solution, clipped.
	xhat, err := m.infer(y)
	if err != nil {
		return nil, err
	}
	for i, v := range xhat {
		if v < 0 {
			xhat[i] = 0
		}
	}
	// Sharded estimates live on the concatenated sub-domains, so the
	// polish runs on the operator the solver inverted.
	return nnlsPolish(m.solvedOp(), y, xhat), nil
}

// nnlsPolish runs projected gradient descent for min ‖Ax−y‖² over x ≥ 0,
// with the step size set by a power-iteration bound on λmax(AᵀA). It only
// needs matvecs, so it works for any strategy operator.
func nnlsPolish(a linalg.Operator, y, x0 []float64) []float64 {
	n := a.Cols()
	x := append([]float64(nil), x0...)
	// Power iteration for the Lipschitz constant 2·λmax(AᵀA).
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	// av doubles as the residual Ax−y and w as the gradient below.
	av := make([]float64, a.Rows())
	w := make([]float64, n)
	var lmax float64
	for it := 0; it < 30; it++ {
		linalg.MulVecInto(a, av, v)
		linalg.MulVecTInto(a, w, av)
		var norm float64
		for _, z := range w {
			norm += z * z
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		lmax = norm
		for i := range v {
			v[i] = w[i] / norm
		}
	}
	if lmax == 0 {
		return x
	}
	step := 1 / lmax
	for it := 0; it < 300; it++ {
		res := linalg.MulVecInto(a, av, x)
		for i := range res {
			res[i] -= y[i]
		}
		grad := linalg.MulVecTInto(a, w, res)
		var moved float64
		for i := range x {
			nx := x[i] - step*grad[i]
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[i])
			x[i] = nx
		}
		if moved < 1e-10*(1+l1(x)) {
			break
		}
	}
	return x
}

func l1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// QueryVariances returns the noise variance of each query answer of an
// explicit workload under this mechanism: Var(w x̂) = σ²·‖wA⁺‖². Callers
// can turn these into confidence intervals via ConfidenceInterval. On a
// sampled mechanism it is σ²‖Lᵀwᵢ‖² = σ²·wᵢᵀ(AᵀA)⁻¹wᵢ, exact through the
// sampler; on the other matrix-free paths the identity
// ‖wᵢA⁺‖² = wᵢᵀ(AᵀA)⁺wᵢ is evaluated with one normal-equation CG solve
// per query.
func (m *Mechanism) QueryVariances(w *workload.Workload, p Privacy) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m.shards != nil {
		return nil, fmt.Errorf("mm: per-query variances are not available for sharded strategies; compute them per shard")
	}
	if !w.Explicit() {
		return nil, fmt.Errorf("mm: per-query variances need explicit workload rows; %q has %d queries, past the materialization cap", w.Name(), w.NumQueries())
	}
	sigma := p.GaussianSigma(m.sensL2)
	if pinv := m.PreparedPinv(); pinv != nil {
		wa := w.Matrix().Mul(pinv)
		out := make([]float64, wa.Rows())
		for i := range out {
			var s float64
			for _, v := range wa.Row(i) {
				s += v * v
			}
			out[i] = sigma * sigma * s
		}
		return out, nil
	}
	wm := w.Matrix()
	out := make([]float64, wm.Rows())
	var ws linalg.CGWorkspace
	z := make([]float64, wm.Cols())
	for i := range out {
		wi := wm.Row(i)
		if m.sampler != nil {
			m.sampler.CovInto(z, wi, &ws)
		} else {
			var err error
			if z, err = linalg.SolveNormalCG(m.a, wi, linalg.CGOptions{}); err != nil {
				return nil, err
			}
		}
		var s float64
		for j, v := range wi {
			s += v * z[j]
		}
		if s < 0 {
			s = 0
		}
		out[i] = sigma * sigma * s
	}
	return out, nil
}

// ConfidenceInterval returns the half-width of a two-sided Gaussian
// confidence interval at the given level (e.g. 0.95) for an answer with
// the given variance. Released answers are exactly Gaussian around the
// truth (the mechanism adds linear functions of Gaussian noise), so these
// intervals are exact, not asymptotic.
func ConfidenceInterval(variance, level float64) (float64, error) {
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("mm: confidence level %g outside (0,1)", level)
	}
	if variance < 0 {
		return 0, fmt.Errorf("mm: negative variance %g", variance)
	}
	z := gaussQuantile(0.5 + level/2)
	return z * math.Sqrt(variance), nil
}

// gaussQuantile computes the standard normal quantile via bisection on the
// complementary error function (plenty accurate for CI use).
func gaussQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if 0.5*(1+math.Erf(mid/math.Sqrt2)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Split divides a privacy budget across k sequential releases under basic
// composition: each part gets ε/k and δ/k, so running k mechanisms with
// the part yields (ε,δ)-differential privacy overall. The paper's batch
// setting avoids this cost by answering the whole workload at once — Split
// exists to quantify exactly what that buys (see the composition test).
func (p Privacy) Split(k int) (Privacy, error) {
	if k < 1 {
		return Privacy{}, fmt.Errorf("mm: cannot split a budget %d ways", k)
	}
	return Privacy{Epsilon: p.Epsilon / float64(k), Delta: p.Delta / float64(k)}, nil
}
