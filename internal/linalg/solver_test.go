package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
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
// sparse factor that is no interval forest).
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
