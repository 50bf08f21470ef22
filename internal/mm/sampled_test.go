package mm

// Sampled releases: a Gaussian release on a mechanism whose solver
// carries a square root L of (AᵀA)⁻¹ returns x + σ·L·g. These tests
// check that path against ground truth computed densely, apart from the
// sampler: its output law, the sensitivity it is calibrated to, its
// exact per-query variances, the plans that must keep the classic path,
// its stage spans and its allocations.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adaptivemm/internal/core"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/linalg/lintest"
	"adaptivemm/internal/obs"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

// sampledCase is a full-rank strategy whose mechanism samples.
type sampledCase struct {
	name string
	op   linalg.Operator
}

// sampledCases are the full-rank entries of linalg's kronSolverCases
// (same constructions), the tree sampler cases and census-3d's strategy,
// the factored principal-vectors design (k = 16) for all-range queries
// on 8×16×16. The race build leaves census-3d out: its checks run on one
// goroutine, and its design and dense ground truth take ~100 s under the
// detector.
func sampledCases(t testing.TB) []sampledCase {
	t.Helper()
	hier := func(b int, sides ...int) linalg.Operator {
		return strategy.HierarchicalOperator(domain.MustShape(sides...), b)
	}
	hier3 := hier(2, 5, 7, 3)
	cases := []sampledCase{
		{"hier-4x8-b2", hier(2, 4, 8)},
		{"hier-5x7x3-b2", hier3},
		{"hier-5x7x3-b4", hier(4, 5, 7, 3)},
		{"hier-3x4x2x5-b2", hier(2, 3, 4, 2, 5)},
		{"hier-6x10-b4", hier(4, 6, 10)},
		{"tree-identity", linalg.NewKronOp(hier(2, 6), linalg.Eye(5))},
		{"normed-kron", linalg.WithColNorms(hier3, linalg.OperatorColNorms2(hier3), nil)},
	}
	cases = append(cases, treeCases()...)
	if !raceEnabled {
		cases = append(cases, sampledCase{"census-3d", census3dStrategy(t)})
	}
	return cases
}

// treeCases are lintest's tree sampler cases, named tree-….
func treeCases() []sampledCase {
	var out []sampledCase
	for _, c := range lintest.TreeSamplerCases() {
		out = append(out, sampledCase{"tree-" + c.Name, c.Op})
	}
	return out
}

// census3dStrategy is the strategy the planner serves for census-3d.
func census3dStrategy(t testing.TB) linalg.Operator {
	t.Helper()
	res, err := core.PrincipalVectors(workload.AllRange(domain.MustShape(8, 16, 16)), 16, core.Options{Pipeline: core.PipelineFactored})
	if err != nil {
		t.Fatal(err)
	}
	return res.Op
}

// covTruth is (AᵀA)⁻¹ computed densely, apart from any sampler: its
// diagonal and its quadratic form u ↦ uᵀ(AᵀA)⁻¹u.
type covTruth struct {
	diag []float64
	quad func(u []float64) float64
}

// denseCovariance returns (AᵀA)⁻¹ = A⁺(A⁺)ᵀ from the dense
// pseudo-inverse, or past 512 cells, where that decomposition takes tens
// of seconds, (AᵀA)⁻¹ = R⁻ᵀR⁻¹ from the Cholesky factor R of the dense
// Gram matrix: diag_j = ‖R⁻¹eⱼ‖² and uᵀ(AᵀA)⁻¹u = ‖R⁻¹u‖².
func denseCovariance(t testing.TB, op linalg.Operator) covTruth {
	t.Helper()
	n := op.Cols()
	if n <= 512 {
		pinv, err := linalg.PseudoInverse(linalg.ToDense(op))
		if err != nil {
			t.Fatal(err)
		}
		cov := pinv.Mul(pinv.T())
		diag := make([]float64, n)
		for j := range diag {
			diag[j] = cov.At(j, j)
		}
		return covTruth{diag: diag, quad: func(u []float64) float64 { return sumSq(linalg.MulVec(pinv.T(), u)) }}
	}
	g := linalg.OperatorGram(op)
	r := make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			s := g.At(i, j)
			for k := 0; k < j; k++ {
				s -= r[i][k] * r[j][k]
			}
			if i == j {
				if s <= 0 {
					t.Fatalf("Gram matrix is not positive definite at %d", i)
				}
				r[i][i] = math.Sqrt(s)
			} else {
				r[i][j] = s / r[j][j]
			}
		}
	}
	// solve writes R⁻¹u into z, whose entries before from are zero.
	solve := func(z, u []float64, from int) {
		for i := from; i < n; i++ {
			s := u[i]
			for k := from; k < i; k++ {
				s -= r[i][k] * z[k]
			}
			z[i] = s / r[i][i]
		}
	}
	diag := make([]float64, n)
	z, e := make([]float64, n), make([]float64, n)
	for j := range diag {
		clear(z)
		e[j] = 1
		solve(z, e, j)
		e[j] = 0
		diag[j] = sumSq(z)
	}
	return covTruth{diag: diag, quad: func(u []float64) float64 {
		z := make([]float64, n)
		solve(z, u, 0)
		return sumSq(z)
	}}
}

// sumSq returns Σ v².
func sumSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// TestSampledReleaseLaw checks the law of seeded sampled releases against
// N(x, σ²(AᵀA)⁻¹), the law of the classic path's x̂ = A⁺(Ax + z), with
// (AᵀA)⁻¹ computed densely. Over N releases per strategy:
//   - each cell's mean error is within 5.5 standard errors of 0, and its
//     mean squared error within the χ²(N) quantiles at z = ±5.5
//     (Wilson–Hilferty) of diag(σ²(AᵀA)⁻¹);
//   - on four fixed random projections u, the standardized errors
//     uᵀ(x̂ − x)/(σ²uᵀ(AᵀA)⁻¹u)^{1/2} pass a one-sample Kolmogorov–Smirnov
//     test against N(0, 1) at √N·D < 1.95 (α ≈ 0.001).
func TestSampledReleaseLaw(t *testing.T) {
	const releases = 1500
	const z = 5.5
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	for ci, c := range sampledCases(t) {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMechanism(c.op)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Sampled() {
				t.Fatalf("%s mechanism (%s) does not sample", c.name, m.SolverKind())
			}
			n := c.op.Cols()
			cov := denseCovariance(t, c.op)
			sigma := p.GaussianSigma(m.SensitivityL2())
			r := rand.New(rand.NewSource(int64(61 + ci)))
			x := make([]float64, n)
			for i := range x {
				x[i] = math.Round(100 * r.Float64())
			}
			proj := make([][]float64, 4)
			projSD := make([]float64, len(proj))
			for k := range proj {
				proj[k] = make([]float64, n)
				for i := range proj[k] {
					proj[k][i] = r.NormFloat64()
				}
				projSD[k] = sigma * math.Sqrt(cov.quad(proj[k]))
			}
			sum, sq := make([]float64, n), make([]float64, n)
			stats := make([][]float64, len(proj))
			sc := m.NewScratch()
			for rel := 0; rel < releases; rel++ {
				est, err := m.EstimateGaussianInto(sc, x, p, r)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range est {
					d := v - x[i]
					sum[i] += d
					sq[i] += d * d
				}
				for k, u := range proj {
					var s float64
					for i, v := range est {
						s += u[i] * (v - x[i])
					}
					stats[k] = append(stats[k], s/projSD[k])
				}
			}
			lo, hi := chiSquareQuantile(releases, -z), chiSquareQuantile(releases, z)
			for i := 0; i < n; i++ {
				v := sigma * sigma * cov.diag[i]
				if mean := sum[i] / releases; math.Abs(mean) > z*math.Sqrt(v/releases) {
					t.Fatalf("cell %d: mean error %g, standard error %g", i, mean, math.Sqrt(v/releases))
				}
				if q := sq[i] / v; q < lo || q > hi {
					t.Fatalf("cell %d: N·s²/σ² = %.1f outside the χ²(%d) bounds [%.1f, %.1f]", i, q, releases, lo, hi)
				}
			}
			for k, s := range stats {
				if d := ksNormal(s); d*math.Sqrt(releases) >= 1.95 {
					t.Fatalf("projection %d: √N·D = %.3f against N(0,1)", k, d*math.Sqrt(releases))
				}
			}
		})
	}
}

// chiSquareQuantile is the Wilson–Hilferty approximation of the χ²(k)
// quantile at standard normal deviate z.
func chiSquareQuantile(k int, z float64) float64 {
	a := 2 / (9 * float64(k))
	return float64(k) * math.Pow(1-a+z*math.Sqrt(a), 3)
}

// ksNormal returns the one-sample Kolmogorov–Smirnov statistic of s
// against N(0, 1); s is sorted in place.
func ksNormal(s []float64) float64 {
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, v := range s {
		f := 0.5 * (1 + math.Erf(v/math.Sqrt2))
		d = max(d, math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f))
	}
	return d
}

// TestSampledSensitivityIsBruteForce: the L2 sensitivity a sampled
// release is calibrated to equals max‖Aeⱼ‖ over every column, probed
// one unit vector at a time through the operator's own product.
func TestSampledSensitivityIsBruteForce(t *testing.T) {
	for _, c := range sampledCases(t) {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMechanism(c.op)
			if err != nil {
				t.Fatal(err)
			}
			e, col := make([]float64, c.op.Cols()), make([]float64, c.op.Rows())
			var best float64
			for j := range e {
				e[j] = 1
				c.op.MulVecInto(col, e)
				e[j] = 0
				var s float64
				for _, v := range col {
					s += v * v
				}
				best = max(best, math.Sqrt(s))
			}
			if got := m.SensitivityL2(); math.Abs(got-best) > 1e-12*best {
				t.Fatalf("SensitivityL2 = %.17g, brute force max‖Aeⱼ‖ = %.17g", got, best)
			}
		})
	}
}

// TestSampledQueryVariancesExact: on a small Kronecker strategy, a
// small Woodbury strategy and the tree cases, all sampled,
// QueryVariances equals σ²‖wᵢA⁺‖² from the dense pseudo-inverse to 1e-9
// relative. The race build leaves the 1,024-cell tree out: its dense
// pseudo-inverse takes over a minute under the detector.
func TestSampledQueryVariancesExact(t *testing.T) {
	p := Privacy{Epsilon: 0.7, Delta: 1e-5}
	for _, c := range append([]sampledCase{
		{"kron", strategy.HierarchicalOperator(domain.MustShape(4, 8), 2)},
		{"woodbury", woodburyStrategy(rand.New(rand.NewSource(67)), 0.3)},
	}, treeCases()...) {
		if raceEnabled && c.op.Cols() > 512 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMechanism(c.op)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Sampled() {
				t.Fatalf("%s mechanism (%s) does not sample", c.name, m.SolverKind())
			}
			r := rand.New(rand.NewSource(71))
			wm := linalg.New(20, c.op.Cols())
			for i := range wm.Data() {
				wm.Data()[i] = math.Round(r.NormFloat64())
			}
			w := workload.FromMatrix("random", domain.MustShape(c.op.Cols()), wm)
			got, err := m.QueryVariances(w, p)
			if err != nil {
				t.Fatal(err)
			}
			pinv, err := linalg.PseudoInverse(linalg.ToDense(c.op))
			if err != nil {
				t.Fatal(err)
			}
			sigma := p.GaussianSigma(m.SensitivityL2())
			wa := wm.Mul(pinv)
			for i := range got {
				var want float64
				for _, v := range wa.Row(i) {
					want += v * v
				}
				want *= sigma * sigma
				if math.Abs(got[i]-want) > 1e-9*want {
					t.Fatalf("query %d: variance %.17g, dense σ²‖wA⁺‖² = %.17g", i, got[i], want)
				}
			}
		})
	}
}

// woodburyStrategy is a strategy in the factored eigen-design form
// diag(s)·P·(V₁ ⊗ V₂) over 4×8 cells, stacked on three completion rows:
// V₁ and V₂ are random orthogonal matrices, five rows carry weights
// drawn from [0.5, 2.5) and the rest share the tail weight.
func woodburyStrategy(r *rand.Rand, tail float64) linalg.Operator {
	orth := func(d int) *linalg.Matrix {
		g := linalg.New(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j <= i; j++ {
				v := r.NormFloat64()
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		eg, err := linalg.SymEigen(g)
		if err != nil {
			panic(err)
		}
		return eg.Vectors
	}
	const n = 32
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = tail
		if i < 5 {
			scales[i] = 0.5 + 2*r.Float64()
		}
	}
	op := linalg.ScaleRows(linalg.PermuteRows(linalg.NewKronOp(orth(4), orth(8)), r.Perm(n)), scales)
	return linalg.StackOps(op, linalg.SparseDiag(n, []int{0, 5, 31}, []float64{0.5, 1, 2}))
}

// TestSampledFallbacks: a Kronecker strategy with a rank-deficient
// factor, a Woodbury strategy with rows weighing less than the tail
// (some s_R² ≤ t²), a tree with an uncovered cell and a tree with a
// multi-cell leaf keep their exact solvers but not a sampler, so a
// seeded Gaussian release takes the classic path: it equals, bit for
// bit, the strategy answers plus one draw per row in order, solved.
func TestSampledFallbacks(t *testing.T) {
	uncovered, wideLeaf := linalg.NewSparseBuilder(6), linalg.NewSparseBuilder(6)
	for _, iv := range [][2]int{{0, 4}, {0, 1}, {2, 4}, {0, 0}, {1, 1}, {2, 2}, {3, 4}, {3, 3}, {4, 4}} {
		uncovered.AppendRangeRow(iv[0], iv[1], 1) // cell 5 is in no row
	}
	for _, iv := range [][2]int{{0, 5}, {0, 2}, {3, 5}, {0, 0}, {1, 2}, {3, 3}, {4, 4}, {5, 5}} {
		wideLeaf.AppendRangeRow(iv[0], iv[1], 1) // the leaf [1, 2] spans two cells
	}
	r := rand.New(rand.NewSource(73))
	u, v := linalg.New(6, 2), linalg.New(2, 4)
	for _, m := range []*linalg.Matrix{u, v} {
		for i := range m.Data() {
			m.Data()[i] = r.NormFloat64()
		}
	}
	for _, c := range []struct {
		name, solver string
		op           linalg.Operator
	}{
		{"rank-deficient-factor", "kron", linalg.NewKronOp(u.Mul(v), strategy.HierarchicalOperator(domain.MustShape(5), 2))},
		{"rows-below-tail", "eigen", woodburyStrategy(r, 3)},
		{"tree-uncovered-cell", "tree", uncovered.Build()},
		{"tree-multi-cell-leaf", "tree", wideLeaf.Build()},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMechanism(c.op)
			if err != nil {
				t.Fatal(err)
			}
			if m.SolverKind() != c.solver || m.Sampled() {
				t.Fatalf("solver %s, sampled %v; want %s, false", m.SolverKind(), m.Sampled(), c.solver)
			}
			x := make([]float64, c.op.Cols())
			for i := range x {
				x[i] = float64(i%5) + 1
			}
			p := Privacy{Epsilon: 0.5, Delta: 1e-4}
			got, err := m.EstimateGaussian(x, p, rand.New(rand.NewSource(79)))
			if err != nil {
				t.Fatal(err)
			}
			rr := rand.New(rand.NewSource(79))
			sigma := p.GaussianSigma(m.SensitivityL2())
			y := linalg.MulVec(c.op, x)
			for i := range y {
				y[i] += sigma * rr.NormFloat64()
			}
			want := make([]float64, len(x))
			if err := m.Solver().SolveLSInto(want, y, &linalg.CGWorkspace{}); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("estimate[%d] = %v, classic path %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSampledReleaseStageSpans: a traced sampled release records all
// three stage spans, the answer span zero-length, and its stage timers
// observe each stage once.
func TestSampledReleaseStageSpans(t *testing.T) {
	m, err := NewMechanism(strategy.HierarchicalOperator(domain.MustShape(8, 16), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Sampled() {
		t.Fatal("Kronecker-of-trees mechanism does not sample")
	}
	timers := testStageTimers()
	m.SetStageTimers(timers)
	sc := m.NewScratch()
	sc.Trace = obs.NewTrace("test", "")
	if _, err := m.EstimateGaussianInto(sc, make([]float64, 128), Privacy{Epsilon: 1, Delta: 1e-5}, rand.New(rand.NewSource(83))); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sc.Trace.Spans() {
		names = append(names, s.Name)
		if s.Name == stageAnswer && s.End != s.Start {
			t.Fatalf("answer span lasts %v, want 0", s.End-s.Start)
		}
	}
	if !slices.Equal(names, []string{stageAnswer, stageNoise, stageInfer}) {
		t.Fatalf("spans %v, want answer, noise, infer", names)
	}
	for _, h := range []*obs.Histogram{timers.Answer, timers.Noise, timers.Infer} {
		if h.Count() != 1 {
			t.Fatalf("stage histogram counted %d releases, want 1", h.Count())
		}
	}
}

// benchSampledMechanisms returns sampled mechanisms over the
// strategies of the benchmark workloads: range1d-batch's (a binary tree
// over 1,024 cells, a tree solver), census-rangemarg's (binary trees
// over 8×16×16, a Kronecker solver) and census-3d's (a Woodbury solver).
func benchSampledMechanisms(t testing.TB) map[string]*Mechanism {
	t.Helper()
	out := map[string]*Mechanism{}
	for name, op := range map[string]linalg.Operator{
		"range1d-batch":    strategy.HierarchicalOperator(domain.MustShape(1024), 2),
		"census-rangemarg": strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2),
		"census-3d":        census3dStrategy(t),
	} {
		m, err := NewMechanism(op)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Sampled() {
			t.Fatalf("%s mechanism (%s) does not sample", name, m.SolverKind())
		}
		out[name] = m
	}
	return out
}

// TestSampledReleaseZeroAlloc is the allocation pin for sampled
// releases: once warmed, a release through the production noise source
// with stage timers attached allocates nothing on any sampling solver.
func TestSampledReleaseZeroAlloc(t *testing.T) {
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	for name, m := range benchSampledMechanisms(t) {
		x := cellCounts(m.Strategy().Cols())
		t.Run(name, func(t *testing.T) {
			m.SetStageTimers(testStageTimers())
			cs := AcquireCryptoSource()
			defer ReleaseCryptoSource(cs)
			sc := m.NewScratch()
			if _, err := m.EstimateGaussianInto(sc, x, p, cs); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, err := m.EstimateGaussianInto(sc, x, p, cs); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("warmed sampled release allocates %v per release, want 0", allocs)
			}
		})
	}
}

// cellCounts returns n small cell counts, i mod 13.
func cellCounts(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 13)
	}
	return x
}

// BenchmarkSampledRelease times one sampled Gaussian release through the
// production noise source on the benchmark workloads' strategies.
func BenchmarkSampledRelease(b *testing.B) {
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	mechs := benchSampledMechanisms(b)
	for _, name := range []string{"range1d-batch", "census-rangemarg", "census-3d"} {
		m := mechs[name]
		x := cellCounts(m.Strategy().Cols())
		b.Run(name, func(b *testing.B) {
			cs := AcquireCryptoSource()
			defer ReleaseCryptoSource(cs)
			sc := m.NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.EstimateGaussianInto(sc, x, p, cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
