// Package mm implements the (ε,δ)-matrix mechanism of Li et al. [14] as
// used throughout the paper: analytic workload error (Prop. 4), the
// singular value lower bound (Thm. 2), and the runtime that actually
// answers workloads on data. Prop. 3 describes a release in three steps:
// answer the strategy queries with Gaussian noise, y = Ax + z; infer the
// cell counts by least squares, x̂ = A⁺y; answer the workload as W x̂.
// For a strategy of full column rank, x̂ = x + A⁺z is N(x, σ²(AᵀA)⁻¹),
// so a mechanism whose solver carries a square root L of (AᵀA)⁻¹
// (linalg.Sampler) releases x + σ·L·g with g ~ N(0, I) instead: the same
// output law, hence the same privacy and error, from as many draws as L
// has columns and no strategy answers or solve. A Laplace / ε-DP variant
// supports the Sec 3.5 extension; it always takes the three steps.
package mm

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// Privacy bundles the differential privacy parameters.
type Privacy struct {
	Epsilon float64
	Delta   float64 // 0 selects pure ε-differential privacy
}

// Validate checks the parameters are usable for the Gaussian mechanism.
func (p Privacy) Validate() error {
	if p.Epsilon <= 0 {
		return fmt.Errorf("mm: epsilon = %g must be positive", p.Epsilon)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("mm: delta = %g must be in (0,1) for the Gaussian mechanism", p.Delta)
	}
	return nil
}

// P returns the paper's noise constant P(ε,δ) = 2·ln(2/δ)/ε² (Prop. 4).
func (p Privacy) P() float64 {
	return 2 * math.Log(2/p.Delta) / (p.Epsilon * p.Epsilon)
}

// GaussianSigma returns the Gaussian noise scale for answering queries with
// L2 sensitivity sens: σ = sens·sqrt(2 ln(2/δ))/ε (Prop. 2).
func (p Privacy) GaussianSigma(sens float64) float64 {
	return sens * math.Sqrt(2*math.Log(2/p.Delta)) / p.Epsilon
}

// LaplaceScale returns the Laplace noise scale b = sens/ε for L1
// sensitivity sens under pure ε-differential privacy.
func (p Privacy) LaplaceScale(sens float64) float64 {
	return sens / p.Epsilon
}

// ErrNotSupported is returned when a strategy cannot answer a workload
// because the workload's rows are not contained in the strategy's row
// space (the least-squares estimate would be biased).
var ErrNotSupported = errors.New("mm: workload is not supported by the strategy (row space mismatch)")

// Error computes the analytic root-mean-square workload error of answering
// w with strategy a under the (ε,δ)-matrix mechanism:
//
//	Error_A(W) = ‖A‖₂ · sqrt( P(ε,δ) · trace(WᵀW (AᵀA)⁺) / m )
//
// following Prop. 4 with Def. 5's 1/m averaging. The strategy may be any
// operator — dense matrices use the blocked Gram product, structured
// operators their analytic Gram. The pseudo-inverse handles rank-deficient
// strategies; use ErrorChecked to verify support. The result is
// independent of the database, as the paper emphasizes.
func Error(w *workload.Workload, a linalg.Operator, p Privacy) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	eg, err := linalg.SymEigen(linalg.OperatorGram(a))
	if err != nil {
		return 0, err
	}
	return errorFromParts(w, linalg.MaxColNorm2Op(a), eg.TracePinv(w.Gram(), pinvTol), p)
}

// pinvTol is the relative eigenvalue cutoff of (AᵀA)⁺ in the analytic
// error: eigenvalues at or below pinvTol·λmax count as null. The trace
// trace(WᵀW (AᵀA)⁺) goes through linalg.EigenSym.TracePinv, a sum of
// non-negative terms.
const pinvTol = 1e-11

// ErrorChecked is Error plus a verification that the workload's row space
// is contained in the strategy's; it returns ErrNotSupported otherwise.
func ErrorChecked(w *workload.Workload, a linalg.Operator, p Privacy) (float64, error) {
	gA := linalg.OperatorGram(a)
	eg, err := linalg.SymEigen(gA)
	if err != nil {
		return 0, err
	}
	// Support check: G·(AᵀA)⁺(AᵀA) must reproduce G = WᵀW.
	g := w.Gram()
	proj := g.MulParallel(eg.PseudoInverse(pinvTol)).MulParallel(gA)
	scale := 1 + g.FrobeniusNorm()
	if !proj.Equal(g, 1e-6*scale) {
		return 0, ErrNotSupported
	}
	return errorFromParts(w, linalg.MaxColNorm2Op(a), eg.TracePinv(g, pinvTol), p)
}

func errorFromParts(w *workload.Workload, sens, trace float64, p Privacy) (float64, error) {
	m := float64(w.NumQueries())
	if m == 0 {
		return 0, errors.New("mm: empty workload")
	}
	return sens * math.Sqrt(p.P()*trace/m), nil
}

// ErrorL1 computes the analytic root-mean-square workload error of the
// ε-matrix mechanism (Laplace noise calibrated to L1 sensitivity, Sec 3.5):
//
//	Error_A(W) = ‖A‖₁ · sqrt( 2·trace(WᵀW (AᵀA)⁺) / m ) / ε
//
// using the Laplace distribution's variance 2b². Only the sensitivity term
// differs from the (ε,δ) case, exactly as the paper describes.
func ErrorL1(w *workload.Workload, a linalg.Operator, epsilon float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("mm: epsilon = %g must be positive", epsilon)
	}
	eg, err := linalg.SymEigen(linalg.OperatorGram(a))
	if err != nil {
		return 0, err
	}
	trace := eg.TracePinv(w.Gram(), pinvTol)
	m := float64(w.NumQueries())
	if m == 0 {
		return 0, errors.New("mm: empty workload")
	}
	return linalg.MaxColNormL1Op(a) * math.Sqrt(2*trace/m) / epsilon, nil
}

// QueryErrors returns the analytic RMSE of each individual query of an
// explicit workload under strategy a: σ(A)·‖wᵢA⁺‖₂ (Def. 5).
func QueryErrors(w *workload.Workload, a *linalg.Matrix, p Privacy) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pinv, err := linalg.PseudoInverse(a)
	if err != nil {
		return nil, err
	}
	wa := w.Matrix().Mul(pinv)
	sigma := p.GaussianSigma(a.MaxColNorm2())
	out := make([]float64, wa.Rows())
	for i := range out {
		var s float64
		for _, v := range wa.Row(i) {
			s += v * v
		}
		out[i] = sigma * math.Sqrt(s)
	}
	return out, nil
}

// SVDB returns the singular value bound svdb(W) = (Σ√σᵢ)²/n of Thm. 2,
// computed from the eigenvalues of WᵀW (negative round-off is clamped).
func SVDB(w *workload.Workload) (float64, error) {
	eg, err := linalg.SymEigen(w.Gram())
	if err != nil {
		return 0, err
	}
	return svdbFromEigenvalues(eg.Values), nil
}

func svdbFromEigenvalues(values []float64) float64 {
	var s float64
	for _, v := range values {
		if v > 0 {
			s += math.Sqrt(v)
		}
	}
	n := float64(len(values))
	return s * s / n
}

// LowerBound returns the Thm. 2 lower bound on the error any strategy can
// achieve for w: sqrt(P(ε,δ)·svdb(W)/m), in the same units as Error.
func LowerBound(w *workload.Workload, p Privacy) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	svdb, err := SVDB(w)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(p.P() * svdb / float64(w.NumQueries())), nil
}

// LowerBoundFromEigenvalues is LowerBound for callers that already hold the
// eigenvalues of WᵀW (the Eigen-Design pipeline), avoiding a second O(n³)
// decomposition.
func LowerBoundFromEigenvalues(values []float64, m int, p Privacy) float64 {
	return math.Sqrt(p.P() * svdbFromEigenvalues(values) / float64(m))
}
