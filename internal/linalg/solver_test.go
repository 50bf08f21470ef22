package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"adaptivemm/internal/core"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

// denseCap is the factor cap the mechanism passes (mm.DenseInferenceCap).
const denseCap = 1024

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 10 * r.NormFloat64()
	}
	return v
}

// kronSolverCases are Kronecker strategies that must get an exact
// solver: hierarchical products of two to four trees (power-of-two and
// other sides, branching 2 and 4), and products with factors on the
// dense pseudo-inverse path (an identity, a rank-deficient matrix and a
// sparse factor that is no interval forest), two of them with a wide
// last factor.
func kronSolverCases(r *rand.Rand) []struct {
	name string
	op   linalg.Operator
} {
	hier := func(b int, sides ...int) linalg.Operator {
		return strategy.HierarchicalOperator(domain.MustShape(sides...), b)
	}
	tree := func(d int) linalg.Operator { return hier(2, d) }
	// Rank 2: a 6×2 times 2×4 product, so the minimum-norm path matters.
	u, v := linalg.New(6, 2), linalg.New(2, 4)
	for _, m := range []*linalg.Matrix{u, v} {
		for i := range m.Data() {
			m.Data()[i] = r.NormFloat64()
		}
	}
	lowRank := u.Mul(v)
	// Crossing intervals: constant rows, but not a laminar forest.
	cross := linalg.NewSparseBuilder(4)
	cross.AppendRangeRow(0, 2, 1)
	cross.AppendRangeRow(1, 3, 1)
	cross.AppendRangeRow(0, 3, 2)
	total := linalg.NewSparseBuilder(6)
	total.AppendRangeRow(0, 5, 1)
	hier3 := hier(2, 5, 7, 3)
	return []struct {
		name string
		op   linalg.Operator
	}{
		{"hier-4x8-b2", hier(2, 4, 8)},
		{"hier-5x7x3-b2", hier3},
		{"hier-5x7x3-b4", hier(4, 5, 7, 3)},
		{"hier-3x4x2x5-b2", hier(2, 3, 4, 2, 5)},
		{"hier-6x10-b4", hier(4, 6, 10)},
		{"tree-identity", linalg.NewKronOp(tree(6), linalg.Eye(5))},
		{"rank-deficient-dense", linalg.NewKronOp(lowRank, tree(5))},
		{"non-laminar-sparse", linalg.NewKronOp(tree(3), cross.Build(), tree(4))},
		// Wide last factors (more cells than rows): the solve's last mode
		// runs one column at a time.
		{"wide-last-total", linalg.NewKronOp(tree(5), total.Build())},
		{"wide-last-dense", linalg.NewKronOp(tree(3), v)},
		{"normed-kron", linalg.WithColNorms(hier3, linalg.OperatorColNorms2(hier3), nil)},
	}
}

// TestKronSolverMatchesPseudoInverse: the Kronecker solver's estimate
// equals the dense pseudo-inverse's A⁺y to 1e-9 relative, for noisy
// right-hand sides off range(A).
func TestKronSolverMatchesPseudoInverse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, c := range kronSolverCases(r) {
		t.Run(c.name, func(t *testing.T) {
			s := kronSolver(t, c.op)
			pinv, err := linalg.PseudoInverse(linalg.ToDense(c.op))
			if err != nil {
				t.Fatal(err)
			}
			var ws linalg.CGWorkspace
			got := make([]float64, c.op.Cols())
			for trial := 0; trial < 5; trial++ {
				y := randVec(r, c.op.Rows())
				want := linalg.MulVec(pinv, y)
				if err := s.SolveLSInto(got, y, &ws); err != nil {
					t.Fatal(err)
				}
				var scale, diff float64
				for i := range want {
					scale = max(scale, math.Abs(want[i]))
					diff = max(diff, math.Abs(got[i]-want[i]))
				}
				if diff > 1e-9*max(1, scale) {
					t.Fatalf("trial %d: max |x̂ − A⁺y| = %g, max |A⁺y| = %g", trial, diff, scale)
				}
			}
		})
	}
}

// kronSolver returns NewSolver's solver for op, which must be a
// *linalg.KronSolver.
func kronSolver(t testing.TB, op linalg.Operator) *linalg.KronSolver {
	t.Helper()
	s, err := linalg.NewSolver(op, denseCap)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := s.(*linalg.KronSolver)
	if !ok {
		t.Fatalf("solver is a %T, want *linalg.KronSolver", s)
	}
	return k
}

// TestNoExactSolverPastDenseCap: a Kronecker factor that is no interval
// forest and has more cells than the dense cap leaves the whole product
// to CGLS, as it does a lone structured operator with no exact solver.
func TestNoExactSolverPastDenseCap(t *testing.T) {
	for _, op := range []linalg.Operator{
		linalg.NewKronOp(linalg.NewPrefixOp(denseCap+1), linalg.Eye(2)),
		linalg.NewPrefixOp(8),
	} {
		s, err := linalg.NewSolver(op, denseCap)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(*linalg.CGLSSolver); !ok {
			t.Fatalf("%dx%d operator got solver %T, want *linalg.CGLSSolver", op.Rows(), op.Cols(), s)
		}
	}
}

// TestKronSolverZeroAllocAndConcurrent pins the warmed solve at zero
// allocations and runs one shared solver from 8 goroutines, each with its
// own workspace: every result must match the sequential solve bit for
// bit (run under -race).
func TestKronSolverZeroAllocAndConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	op := strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2)
	s := kronSolver(t, op)
	var ws linalg.CGWorkspace
	y, dst := randVec(r, op.Rows()), make([]float64, op.Cols())
	s.SolveLSInto(dst, y, &ws)
	if n := testing.AllocsPerRun(20, func() { s.SolveLSInto(dst, y, &ws) }); n != 0 {
		t.Fatalf("warmed KronSolver.SolveLSInto allocates %v per solve, want 0", n)
	}

	const workers = 8
	ys, want := make([][]float64, workers), make([][]float64, workers)
	for g := range ys {
		ys[g] = randVec(r, op.Rows())
		want[g] = make([]float64, op.Cols())
		s.SolveLSInto(want[g], ys[g], &ws)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ws linalg.CGWorkspace
			got := make([]float64, op.Cols())
			for rep := 0; rep < 10; rep++ {
				s.SolveLSInto(got, ys[g], &ws)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[g][i]) {
						errs <- fmt.Errorf("worker %d: x̂[%d] = %v, want %v", g, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// principalStrategy is the factored principal-vectors strategy (k = 16)
// for all-range queries on the given domain: the operator the planner
// serves for census-3d, built by core.assembleFactored.
func principalStrategy(t testing.TB, sides ...int) linalg.Operator {
	t.Helper()
	w := workload.AllRange(domain.MustShape(sides...))
	res, err := core.PrincipalVectors(w, 16, core.Options{Pipeline: core.PipelineFactored})
	if err != nil {
		t.Fatal(err)
	}
	return res.Op
}

// eigenSolver returns NewSolver's solver for op, which must be a
// *linalg.EigenSolver.
func eigenSolver(t testing.TB, op linalg.Operator) *linalg.EigenSolver {
	t.Helper()
	s, err := linalg.NewSolver(op, denseCap)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.(*linalg.EigenSolver)
	if !ok {
		t.Fatalf("solver is a %T, want *linalg.EigenSolver", s)
	}
	return e
}

// assertMatchesPinv checks s against op's dense pseudo-inverse on noisy
// right-hand sides: max |x̂ − A⁺y| ≤ tol·max(1, max |A⁺y|).
func assertMatchesPinv(t *testing.T, s linalg.LSSolver, op linalg.Operator, tol float64) {
	t.Helper()
	pinv, err := linalg.PseudoInverse(linalg.ToDense(op))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	var ws linalg.CGWorkspace
	got := make([]float64, op.Cols())
	for trial := 0; trial < 3; trial++ {
		y := randVec(r, op.Rows())
		if err := s.SolveLSInto(got, y, &ws); err != nil {
			t.Fatal(err)
		}
		if d := relDiff(got, linalg.MulVec(pinv, y)); d > tol {
			t.Fatalf("trial %d: max |x̂ − A⁺y| / max |A⁺y| = %g, want ≤ %g", trial, d, tol)
		}
	}
}

// relDiff is max |a − b| / max(1, max |b|).
func relDiff(a, b []float64) float64 {
	var scale, diff float64
	for i := range b {
		scale = max(scale, math.Abs(b[i]))
		diff = max(diff, math.Abs(a[i]-b[i]))
	}
	return diff / max(1, scale)
}

// TestEigenSolverMatchesPseudoInverse: on factored principal-vectors
// strategies small enough to densify, the Woodbury solve equals the
// dense pseudo-inverse's A⁺y to 1e-9 relative.
func TestEigenSolverMatchesPseudoInverse(t *testing.T) {
	for _, sides := range [][]int{{4, 8, 8}, {8, 16}} {
		t.Run(fmt.Sprint(sides), func(t *testing.T) {
			op := principalStrategy(t, sides...)
			assertMatchesPinv(t, eigenSolver(t, op), op, 1e-9)
		})
	}
}

// TestEigenSolverMatchesCGLS: on census-3d's strategy (8×16×16, 2,048
// cells), the Woodbury solve equals a CGLS solve run to Tol 1e-15.
func TestEigenSolverMatchesCGLS(t *testing.T) {
	op := principalStrategy(t, 8, 16, 16)
	s := eigenSolver(t, op)
	r := rand.New(rand.NewSource(37))
	var ws linalg.CGWorkspace
	got, want := make([]float64, op.Cols()), make([]float64, op.Cols())
	for trial := 0; trial < 2; trial++ {
		y := randVec(r, op.Rows())
		if err := s.SolveLSInto(got, y, &ws); err != nil {
			t.Fatal(err)
		}
		if err := linalg.SolveCGLSInto(op, y, want, linalg.CGOptions{Tol: 1e-15}, &ws); err != nil {
			t.Fatal(err)
		}
		if d := relDiff(got, want); d > 1e-10 {
			t.Fatalf("trial %d: max |x̂ − x̂_cgls| / max |x̂_cgls| = %g", trial, d)
		}
	}
}

// woodburyCase describes a strategy in the factored eigen-design form
// diag(s)·P·(V₁ ⊗ V₂), optionally stacked on completion rows, over 4×8
// cells. V₁ and V₂ are random orthogonal matrices; distinct rows get
// their own scale and the rest share tail.
type woodburyCase struct {
	tail     float64
	distinct int
	perturb  bool                  // add 1e-6 to one entry of V₁
	comp     func() *linalg.Sparse // completion rows, or nil
}

func (c woodburyCase) build(r *rand.Rand) linalg.Operator {
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
	v1, v2 := orth(4), orth(8)
	if c.perturb {
		v1.Set(1, 2, v1.At(1, 2)+1e-6)
	}
	const n = 32
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = c.tail
		if i < c.distinct {
			scales[i] = 0.5 + 2*r.Float64()
		}
	}
	var op linalg.Operator = linalg.ScaleRows(linalg.PermuteRows(linalg.NewKronOp(v1, v2), r.Perm(n)), scales)
	if c.comp != nil {
		op = linalg.StackOps(op, c.comp())
	}
	return linalg.WithColNorms(op, linalg.OperatorColNorms2(op), nil)
}

// TestEigenSolverSelection: NewSolver gives the factored eigen-design
// form an EigenSolver (checked against the dense pseudo-inverse) exactly
// when the Woodbury form holds and stays affordable, and CGLS otherwise.
func TestEigenSolverSelection(t *testing.T) {
	diag := func() *linalg.Sparse { return linalg.SparseDiag(32, []int{0, 5, 31}, []float64{0.5, 1, 2}) }
	everyCol := func() *linalg.Sparse { // Δ = DᵀD is invertible without a tail weight
		idx, vals := make([]int, 32), make([]float64, 32)
		for j := range idx {
			idx[j], vals[j] = j, 0.25+float64(j%3)
		}
		return linalg.SparseDiag(32, idx, vals)
	}
	sharedCol := func() *linalg.Sparse { // two rows on column 5: DᵀD stays diagonal
		return linalg.SparseDiag(32, []int{5, 5, 9}, []float64{0.5, 1, 2})
	}
	sharedRow := func() *linalg.Sparse { // one row on columns 3 and 4: DᵀD is not diagonal
		b := linalg.NewSparseBuilder(32)
		b.AppendRow([]int{3, 4}, []float64{1, 0.5})
		b.AppendRow([]int{7}, []float64{1})
		return b.Build()
	}
	cases := []struct {
		name string
		c    woodburyCase
		cap  int
		want string
	}{
		{"completed", woodburyCase{tail: 0.3, distinct: 5, comp: diag}, denseCap, "*linalg.EigenSolver"},
		{"no-completion", woodburyCase{tail: 0.3, distinct: 5}, denseCap, "*linalg.EigenSolver"},
		{"shared-weight", woodburyCase{tail: 0.3, comp: diag}, denseCap, "*linalg.EigenSolver"},
		{"two-rows-one-column", woodburyCase{tail: 0.3, distinct: 5, comp: sharedCol}, denseCap, "*linalg.EigenSolver"},
		{"zero-tail-every-column-completed", woodburyCase{tail: 0, distinct: 5, comp: everyCol}, denseCap, "*linalg.EigenSolver"},
		{"zero-tail", woodburyCase{tail: 0, comp: diag}, denseCap, "*linalg.CGLSSolver"},
		{"past-dense-cap", woodburyCase{tail: 0.3, distinct: 5, comp: diag}, 4, "*linalg.CGLSSolver"},
		{"non-orthogonal", woodburyCase{tail: 0.3, distinct: 5, comp: diag, perturb: true}, denseCap, "*linalg.CGLSSolver"},
		{"two-columns-one-row", woodburyCase{tail: 0.3, distinct: 5, comp: sharedRow}, denseCap, "*linalg.CGLSSolver"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.c.build(rand.New(rand.NewSource(41)))
			s, err := linalg.NewSolver(op, tc.cap)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", s); got != tc.want {
				t.Fatalf("solver %s, want %s", got, tc.want)
			}
			if _, ok := s.(*linalg.EigenSolver); ok {
				assertMatchesPinv(t, s, op, 1e-9)
			}
		})
	}
}

// TestEigenSolverZeroAllocAndConcurrent pins the warmed Woodbury solve on
// census-3d's strategy at zero allocations and runs one shared solver
// from 8 goroutines, each with its own workspace: every result must match
// the sequential solve bit for bit (run under -race).
func TestEigenSolverZeroAllocAndConcurrent(t *testing.T) {
	op := principalStrategy(t, 8, 16, 16)
	s := eigenSolver(t, op)
	r := rand.New(rand.NewSource(43))
	var ws linalg.CGWorkspace
	y, dst := randVec(r, op.Rows()), make([]float64, op.Cols())
	s.SolveLSInto(dst, y, &ws)
	if n := testing.AllocsPerRun(20, func() { s.SolveLSInto(dst, y, &ws) }); n != 0 {
		t.Fatalf("warmed EigenSolver.SolveLSInto allocates %v per solve, want 0", n)
	}

	const workers = 8
	ys, want := make([][]float64, workers), make([][]float64, workers)
	for g := range ys {
		ys[g] = randVec(r, op.Rows())
		want[g] = make([]float64, op.Cols())
		s.SolveLSInto(want[g], ys[g], &ws)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ws linalg.CGWorkspace
			got := make([]float64, op.Cols())
			for rep := 0; rep < 10; rep++ {
				s.SolveLSInto(got, ys[g], &ws)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[g][i]) {
						errs <- fmt.Errorf("worker %d: x̂[%d] = %v, want %v", g, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkEigenSolver times one least-squares solve over census-3d's
// principal-vectors strategy (8×16×16): the Woodbury solve against the
// CGLS solve it replaces.
func BenchmarkEigenSolver(b *testing.B) {
	op := principalStrategy(b, 8, 16, 16)
	s := eigenSolver(b, op)
	y, dst := randVec(rand.New(rand.NewSource(1)), op.Rows()), make([]float64, op.Cols())
	var ws linalg.CGWorkspace
	b.Run("woodbury", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.SolveLSInto(dst, y, &ws)
		}
	})
	b.Run("cgls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := linalg.SolveCGLSInto(op, y, dst, linalg.CGOptions{}, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKronSolver times one least-squares solve over the Census
// range-marginals strategy (three binary trees over 8×16×16, 14,415 ×
// 2,048): the exact Kronecker solve against the CGLS solve it replaces.
func BenchmarkKronSolver(b *testing.B) {
	op := strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2)
	s := kronSolver(b, op)
	y, dst := randVec(rand.New(rand.NewSource(1)), op.Rows()), make([]float64, op.Cols())
	var ws linalg.CGWorkspace
	b.Run("kron", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.SolveLSInto(dst, y, &ws)
		}
	})
	b.Run("cgls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := linalg.SolveCGLSInto(op, y, dst, linalg.CGOptions{}, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKronProducts times the forward and transposed products of the
// two Census strategies served through Kronecker products over 8×16×16:
// census-rangemarg's three binary trees (sparse factors) and census-3d's
// principal-vectors strategy, whose eigenbasis is a product of dense
// orthogonal factors. A product of a 512² dense factor and an 8² one
// covers the dense slab kernels past the size where they split across
// cores.
func BenchmarkKronProducts(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	dense := func(n int) *linalg.Matrix {
		m := linalg.New(n, n)
		for i := range m.Data() {
			m.Data()[i] = r.NormFloat64()
		}
		return m
	}
	for _, c := range []struct {
		name string
		op   linalg.Operator
	}{
		{"rangemarg", strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2)},
		{"census3d", principalStrategy(b, 8, 16, 16)},
		{"dense512x8", linalg.NewKronOp(dense(512), dense(8))},
	} {
		r := rand.New(rand.NewSource(1))
		x, y := randVec(r, c.op.Cols()), randVec(r, c.op.Rows())
		dst, dstT := make([]float64, c.op.Rows()), make([]float64, c.op.Cols())
		b.Run(c.name+"/forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.op.MulVecInto(dst, x)
			}
		})
		b.Run(c.name+"/transposed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.op.MulVecTInto(dstT, y)
			}
		})
	}
}
