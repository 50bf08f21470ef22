package core

import (
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

var testPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

// designError runs the Eigen-Design algorithm and returns the resulting
// workload error.
func designError(t *testing.T, w *workload.Workload, o Options) float64 {
	t.Helper()
	res, err := Design(w, o)
	if err != nil {
		t.Fatal(err)
	}
	e, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExample4AdaptiveBeatsWavelet(t *testing.T) {
	// Paper Example 4: the adaptive strategy (29.79) improves on wavelet
	// (34.62) and identity (45.36), and is within 1.03 of optimal (29.18).
	w := workload.Fig1()
	eigen := designError(t, w, Options{})
	wav, err := mm.Error(w, strategy.Wavelet(domain.MustShape(8)).A, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mm.Error(w, linalg.Identity(8), testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if !(eigen < wav && wav < id) {
		t.Fatalf("expected eigen < wavelet < identity, got %g, %g, %g", eigen, wav, id)
	}
	lb, err := mm.LowerBound(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if eigen < lb*(1-1e-9) {
		t.Fatalf("eigen error %g below lower bound %g", eigen, lb)
	}
	// Paper: 29.79/29.18 ≈ 1.021 to the bound; allow a little slack.
	if eigen/lb > 1.05 {
		t.Fatalf("eigen/lower = %g, want ≤ 1.05", eigen/lb)
	}
}

func TestDesignBeatsCompetitorsOnRanges(t *testing.T) {
	// Sec 5.1: the eigen-strategy uniformly improves on Hierarchical and
	// Wavelet for range workloads.
	shape := domain.MustShape(32)
	w := workload.AllRange(shape)
	eigen := designError(t, w, Options{})
	for _, s := range []*strategy.Strategy{
		strategy.Wavelet(shape),
		strategy.Hierarchical(shape, 2),
		strategy.Identity(shape),
	} {
		e, err := mm.Error(w, s.A, testPrivacy)
		if err != nil {
			t.Fatal(err)
		}
		if eigen > e*(1+1e-9) {
			t.Fatalf("eigen %g worse than %s %g", eigen, s.Name, e)
		}
	}
}

func TestDesignBeatsCompetitorsOnMarginals(t *testing.T) {
	shape := domain.MustShape(4, 4, 2)
	w := workload.Marginals(shape, 2)
	subsets := [][]int{{0, 1}, {0, 2}, {1, 2}}
	eigen := designError(t, w, Options{})
	for _, s := range []*strategy.Strategy{
		strategy.Fourier(shape, subsets),
		strategy.DataCube(shape, subsets),
	} {
		e, err := mm.Error(w, s.A, testPrivacy)
		if err != nil {
			t.Fatal(err)
		}
		if eigen > e*(1+1e-9) {
			t.Fatalf("eigen %g worse than %s %g", eigen, s.Name, e)
		}
	}
	// Paper: for marginal workloads the eigen-design matches the lower
	// bound (optimal strategies).
	lb, err := mm.LowerBound(w, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if eigen/lb > 1.02 {
		t.Fatalf("eigen/lower = %g on marginals, want ≈ 1", eigen/lb)
	}
}

func TestApproximationRatioWithinTheorem3(t *testing.T) {
	// Thm 3: error ratio to optimum ≤ (nσ₁/svdb)^{1/4}; the bound uses the
	// (unachievable) svdb as the optimum proxy so it also bounds error/lb.
	for _, build := range []func() *workload.Workload{
		func() *workload.Workload { return workload.AllRange(domain.MustShape(24)) },
		func() *workload.Workload { return workload.Prefix(24) },
		func() *workload.Workload { return workload.Marginals(domain.MustShape(3, 4, 2), 1) },
	} {
		w := build()
		res, err := Design(w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := mm.Error(w, res.Strategy, testPrivacy)
		if err != nil {
			t.Fatal(err)
		}
		lb := mm.LowerBoundFromEigenvalues(res.Eigenvalues, w.NumQueries(), testPrivacy)
		bound := ApproxRatioBound(res.Eigenvalues)
		if ratio := e / lb; ratio > bound*(1+1e-6) {
			t.Fatalf("%s: ratio %g exceeds Thm 3 bound %g", w.Name(), ratio, bound)
		}
		// Paper: never witnessed an approximation rate above 1.3.
		if ratio := e / lb; ratio > 1.3 {
			t.Fatalf("%s: ratio %g > 1.3", w.Name(), ratio)
		}
	}
}

func TestSemanticEquivalenceProp5(t *testing.T) {
	// Prop 5: permuting cell conditions leaves the error unchanged.
	r := rand.New(rand.NewSource(7))
	w := workload.AllRange(domain.MustShape(20))
	perm := r.Perm(20)
	wp := w.PermuteCells(perm, "permuted")
	e1 := designError(t, w, Options{})
	e2 := designError(t, wp, Options{})
	if math.Abs(e1-e2) > 0.02*e1 {
		t.Fatalf("Prop 5 violated: %g vs %g", e1, e2)
	}
}

func TestErrorEquivalenceProp6(t *testing.T) {
	// Prop 6: W and QW (orthogonal Q) get strategies with equal error.
	w := workload.Prefix(12)
	// Build an orthogonal Q from the eigenvectors of a random symmetric
	// matrix.
	r := rand.New(rand.NewSource(11))
	b := linalg.New(12, 12)
	for i := 0; i < 12; i++ {
		for j := 0; j <= i; j++ {
			v := r.NormFloat64()
			b.Set(i, j, v)
			b.Set(j, i, v)
		}
	}
	eg, err := linalg.SymEigen(b)
	if err != nil {
		t.Fatal(err)
	}
	q := eg.Vectors
	wq := workload.FromMatrix("QW", w.Shape(), q.Mul(w.Matrix()))
	e1 := designError(t, w, Options{})
	e2 := designError(t, wq, Options{})
	if math.Abs(e1-e2) > 0.02*e1 {
		t.Fatalf("Prop 6 violated: %g vs %g", e1, e2)
	}
}

func TestCompletionNeverHurts(t *testing.T) {
	for _, build := range []func() *workload.Workload{
		workload.Fig1,
		func() *workload.Workload { return workload.AllRange(domain.MustShape(16)) },
		func() *workload.Workload { return workload.Prefix(16) },
	} {
		w := build()
		with := designError(t, w, Options{})
		without := designError(t, w, Options{SkipCompletion: true})
		if with > without*(1+1e-9) {
			t.Fatalf("%s: completion hurt: %g vs %g", w.Name(), with, without)
		}
	}
}

func TestDesignSupportsWorkload(t *testing.T) {
	// The strategy must support the workload (checked error must succeed).
	w := workload.Marginals(domain.MustShape(3, 3), 1)
	res, err := Design(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.ErrorChecked(w, res.Strategy, testPrivacy); err != nil {
		t.Fatalf("strategy does not support workload: %v", err)
	}
}

func TestRankDeficientWorkload(t *testing.T) {
	// Fig. 1 workload has rank 4 < 8 cells: design must drop the null
	// eigen-queries and still support the workload.
	w := workload.Fig1()
	res, err := Design(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank != 4 {
		t.Fatalf("rank = %d, want 4", res.Rank)
	}
	if _, err := mm.ErrorChecked(w, res.Strategy, testPrivacy); err != nil {
		t.Fatalf("rank-deficient workload unsupported: %v", err)
	}
}

func TestKroneckerFastPathMatchesDense(t *testing.T) {
	// Multi-dim all-range carries Gram factors; the composed
	// eigendecomposition must give the same design error as the dense path.
	w := workload.AllRange(domain.MustShape(6, 4))
	if _, ok := w.GramFactors(); !ok {
		t.Fatal("all-range lost its Gram factors")
	}
	fast := designError(t, w, Options{})
	// Strip the factors to force the dense path.
	dense := designError(t, workload.FromMatrix("dense", w.Shape(), w.Matrix()), Options{})
	if math.Abs(fast-dense) > 0.01*dense {
		t.Fatalf("fast path %g vs dense %g", fast, dense)
	}
}

func TestSolversAgree(t *testing.T) {
	w := workload.AllRange(domain.MustShape(24))
	eb := designError(t, w, Options{Solver: SolverBarrier})
	ef := designError(t, w, Options{Solver: SolverFirstOrder})
	if ef > eb*1.03 {
		t.Fatalf("first-order %g much worse than barrier %g", ef, eb)
	}
}

// The solver rule: the automatic choice keeps the barrier up to 384
// weighting variables and switches to first-order past it; a forced
// choice holds at any size.
func TestUsesFirstOrderBoundary(t *testing.T) {
	cases := []struct {
		s    Solver
		vars int
		want bool
	}{
		{SolverAuto, 384, false},
		{SolverAuto, 385, true},
		{SolverBarrier, 10000, false},
		{SolverFirstOrder, 2, true},
	}
	for _, c := range cases {
		if got := UsesFirstOrder(c.s, c.vars); got != c.want {
			t.Errorf("UsesFirstOrder(%d, %d) = %t, want %t", c.s, c.vars, got, c.want)
		}
	}
}

func TestDesignBasisWavelet(t *testing.T) {
	// Using the wavelet matrix as design basis must do at least as well as
	// the plain wavelet strategy (weights can only help).
	shape := domain.MustShape(16)
	w := workload.AllRange(shape)
	wav := strategy.Wavelet(shape)
	res, err := Design(w, Options{DesignBasis: wav.A})
	if err != nil {
		t.Fatal(err)
	}
	eWeighted, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	ePlain, err := mm.Error(w, wav.A, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if eWeighted > ePlain*(1+1e-9) {
		t.Fatalf("weighted wavelet design %g worse than plain wavelet %g", eWeighted, ePlain)
	}
}

func TestL1VariantProducesUsableStrategy(t *testing.T) {
	// Sec 3.5: the ε-DP weighting over the wavelet basis should improve on
	// the unweighted wavelet under L1 error accounting.
	shape := domain.MustShape(16)
	w := workload.AllRange(shape)
	wav := strategy.Wavelet(shape)
	res, err := Design(w, Options{L1: true, DesignBasis: wav.A})
	if err != nil {
		t.Fatal(err)
	}
	if l1ScaledError(t, w, res.Strategy) > l1ScaledError(t, w, wav.A)*(1+1e-9) {
		t.Fatal("L1-weighted wavelet worse than plain wavelet under L1 accounting")
	}
}

// l1ScaledError computes ‖A‖₁²·trace(WᵀW(AᵀA)⁺), the ε-DP analogue of the
// workload error (up to the Laplace constant).
func l1ScaledError(t *testing.T, w *workload.Workload, a *linalg.Matrix) float64 {
	t.Helper()
	inv, err := linalg.PseudoInverseSym(a.Gram(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	s := a.MaxColNormL1()
	return s * s * w.Gram().TraceProduct(inv)
}

func TestEigenSeparationQuality(t *testing.T) {
	// Sec 5.2: separation trades a small error increase for speed. With
	// group size near n^{1/3} the error should stay within ~15% of exact.
	w := workload.AllRange(domain.MustShape(27))
	exact := designError(t, w, Options{})
	res, err := EigenSeparation(w, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	// Separated solutions are a subset of Program 2's space, so separation
	// cannot genuinely beat exact; allow 1% solver tolerance either way.
	if sep < exact*(1-0.01) {
		t.Fatalf("separation beat exact: %g vs %g", sep, exact)
	}
	if sep > exact*1.15 {
		t.Fatalf("separation error %g too far above exact %g", sep, exact)
	}
}

func TestEigenSeparationSingleGroupMatchesExact(t *testing.T) {
	// One group containing everything must match the exact algorithm.
	w := workload.Prefix(10)
	exact := designError(t, w, Options{})
	res, err := EigenSeparation(w, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sep-exact) > 0.01*exact {
		t.Fatalf("single-group separation %g != exact %g", sep, exact)
	}
}

func TestPrincipalVectorsQuality(t *testing.T) {
	w := workload.AllRange(domain.MustShape(32))
	exact := designError(t, w, Options{})
	res, err := PrincipalVectors(w, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	if pv < exact*(1-1e-9) {
		t.Fatalf("principal vectors beat exact: %g vs %g", pv, exact)
	}
	// Paper: good results with as little as 10% of eigenvectors; at 25% we
	// allow 15%.
	if pv > exact*1.15 {
		t.Fatalf("principal-vector error %g too far above exact %g", pv, exact)
	}
}

func TestPrincipalVectorsKTooLargeFallsBack(t *testing.T) {
	w := workload.Prefix(8)
	res, err := PrincipalVectors(w, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	exact := designError(t, w, Options{})
	if math.Abs(pv-exact) > 0.01*exact {
		t.Fatalf("fallback mismatch: %g vs %g", pv, exact)
	}
}

func TestOptimizationArgumentValidation(t *testing.T) {
	w := workload.Prefix(8)
	if _, err := EigenSeparation(w, 0, Options{}); err == nil {
		t.Fatal("accepted group size 0")
	}
	if _, err := PrincipalVectors(w, 0, Options{}); err == nil {
		t.Fatal("accepted k = 0")
	}
}

func TestApproxRatioBoundEdgeCases(t *testing.T) {
	if !math.IsNaN(ApproxRatioBound(nil)) {
		t.Fatal("expected NaN for empty eigenvalues")
	}
	if !math.IsNaN(ApproxRatioBound([]float64{0, 0})) {
		t.Fatal("expected NaN for all-zero eigenvalues")
	}
	// Uniform eigenvalues → bound 1 (identity-like workloads are easy).
	if b := ApproxRatioBound([]float64{2, 2, 2}); math.Abs(b-1) > 1e-12 {
		t.Fatalf("bound = %g, want 1", b)
	}
}

func TestDesignAdHocWorkload(t *testing.T) {
	// Ad hoc union of ranges, marginals and predicates — the adaptivity
	// headline. Eigen must beat all four competitors.
	r := rand.New(rand.NewSource(3))
	shape := domain.MustShape(4, 4)
	adhoc := workload.Union("ad hoc",
		workload.RandomRange(shape, 20, r),
		workload.Marginals(shape, 1),
		workload.Predicate(shape, 10, r),
	)
	eigen := designError(t, adhoc, Options{})
	subsets := [][]int{{0}, {1}}
	supported := 0
	for _, s := range []*strategy.Strategy{
		strategy.Wavelet(shape),
		strategy.Hierarchical(shape, 2),
		strategy.Fourier(shape, [][]int{{0, 1}}),
		strategy.DataCube(shape, subsets),
		strategy.Identity(shape),
	} {
		// Skip strategies that cannot answer this workload at all (the
		// DataCube marginal subset does not span range or predicate
		// queries) — the paper likewise only compares applicable methods.
		e, err := mm.ErrorChecked(adhoc, s.A, testPrivacy)
		if err == mm.ErrNotSupported {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		supported++
		if eigen > e*(1+1e-9) {
			t.Fatalf("eigen %g worse than %s %g on ad hoc workload", eigen, s.Name, e)
		}
	}
	if supported < 3 {
		t.Fatalf("only %d competitors supported the ad hoc workload", supported)
	}
}
