package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
)

// denseRoot returns a sampler's L as a dense cols×draws matrix, one
// column per unit draw vector (SampleInto with x = 0).
func denseRoot(s linalg.Sampler, n int) *linalg.Matrix {
	l := linalg.New(n, s.Draws())
	var ws linalg.CGWorkspace
	zero, col := make([]float64, n), make([]float64, n)
	g := make([]float64, s.Draws())
	for j := 0; j < s.Draws(); j++ {
		clear(g)
		g[j] = 1
		s.SampleInto(col, zero, g, &ws)
		for i, v := range col {
			l.Set(i, j, v)
		}
	}
	return l
}

// maxRelDiff is max |a − b| / max |b| over two equally shaped matrices.
func maxRelDiff(a, b *linalg.Matrix) float64 {
	var scale, diff float64
	for i, v := range b.Data() {
		scale = max(scale, math.Abs(v))
		diff = max(diff, math.Abs(a.Data()[i]-v))
	}
	return diff / scale
}

// fullColumnRank reports whether A⁺A is the identity to 1e-8.
func fullColumnRank(pinv, a *linalg.Matrix) bool {
	return maxRelDiff(pinv.Mul(a), linalg.Identity(a.Cols())) < 1e-8
}

// assertSamplerExact checks a sampler against op's dense pseudo-inverse
// P: its L satisfies LLᵀ = PPᵀ = (AᵀA)⁻¹, and CovInto applies PPᵀ, both
// to 1e-9 relative.
func assertSamplerExact(t *testing.T, s linalg.Sampler, op linalg.Operator) {
	t.Helper()
	a := linalg.ToDense(op)
	pinv, err := linalg.PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	cov := pinv.Mul(pinv.T())
	l := denseRoot(s, op.Cols())
	if d := maxRelDiff(l.Mul(l.T()), cov); d > 1e-9 {
		t.Fatalf("LLᵀ differs from (AᵀA)⁻¹ by %g relative", d)
	}
	got := linalg.New(op.Cols(), op.Cols())
	var ws linalg.CGWorkspace
	e, col := make([]float64, op.Cols()), make([]float64, op.Cols())
	for j := range e {
		e[j] = 1
		s.CovInto(col, e, &ws)
		e[j] = 0
		for i, v := range col {
			got.Set(i, j, v)
		}
	}
	if d := maxRelDiff(got, cov); d > 1e-9 {
		t.Fatalf("CovInto differs from (AᵀA)⁻¹ by %g relative", d)
	}
}

// TestKronSamplerIsSquareRoot: every full-rank Kronecker solver case gets
// a sampler whose L is an exact square root of (AᵀA)⁻¹, and every
// rank-deficient one gets none, so its releases keep the classic path.
func TestKronSamplerIsSquareRoot(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, c := range kronSolverCases(r) {
		t.Run(c.name, func(t *testing.T) {
			a := linalg.ToDense(c.op)
			pinv, err := linalg.PseudoInverse(a)
			if err != nil {
				t.Fatal(err)
			}
			s := linalg.SamplerOf(kronSolver(t, c.op))
			if full := fullColumnRank(pinv, a); (s != nil) != full {
				t.Fatalf("full column rank %v, sampler %v", full, s != nil)
			}
			if s != nil {
				assertSamplerExact(t, s, c.op)
			}
		})
	}
}

// TestKronSamplerTreeRoot: a 128-cell tree factor is modeled cheaper
// through its own A⁺ (255 draws and one tree solve per fiber) than
// through its 128×128 triangular root, so the product draws 255·4
// values; the 4-cell tree takes its triangular root. The mixed L is
// still exact.
func TestKronSamplerTreeRoot(t *testing.T) {
	op := strategy.HierarchicalOperator(domain.MustShape(128, 4), 2)
	s := linalg.SamplerOf(kronSolver(t, op))
	if s == nil {
		t.Fatal("no sampler for a product of full-rank trees")
	}
	if s.Draws() != 255*4 {
		t.Fatalf("%d draws, want 255·4", s.Draws())
	}
	assertSamplerExact(t, s, op)
}

// TestEigenSamplerIsSquareRoot: factored principal-vectors strategies and
// Woodbury cases whose distinct rows all weigh more than the tail get a
// sampler whose L is an exact square root of (AᵀA)⁻¹; a case with some
// s_R² ≤ t² keeps its Woodbury solver but gets no sampler.
func TestEigenSamplerIsSquareRoot(t *testing.T) {
	for _, sides := range [][]int{{4, 8, 8}, {8, 16}} {
		t.Run(fmt.Sprint(sides), func(t *testing.T) {
			op := principalStrategy(t, sides...)
			s := linalg.SamplerOf(eigenSolver(t, op))
			if s == nil || s.Draws() != op.Cols()+16 {
				t.Fatalf("sampler %v, want one of n + 16 draws", s)
			}
			assertSamplerExact(t, s, op)
		})
	}
	diag := func() *linalg.Sparse { return linalg.SparseDiag(32, []int{0, 5, 31}, []float64{0.5, 1, 2}) }
	for _, tc := range []struct {
		name    string
		c       woodburyCase
		sampled bool
	}{
		{"completed", woodburyCase{tail: 0.3, distinct: 5, comp: diag}, true},
		{"no-completion", woodburyCase{tail: 0.3, distinct: 5}, true},
		{"shared-weight", woodburyCase{tail: 0.3, comp: diag}, true},
		// Distinct weights in [0.5, 2.5) under a tail of 3: every
		// s_R² − t² is negative, so Q_Rᵀ·diag(s_R² − t²)·Q_R has no root.
		{"distinct-below-tail", woodburyCase{tail: 3, distinct: 5, comp: diag}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.c.build(rand.New(rand.NewSource(53)))
			s := linalg.SamplerOf(eigenSolver(t, op))
			if (s != nil) != tc.sampled {
				t.Fatalf("sampler %v, want %v", s != nil, tc.sampled)
			}
			if s != nil {
				assertSamplerExact(t, s, op)
			}
		})
	}
}

// TestSamplersZeroAllocAndConcurrent pins the warmed SampleInto on
// census-rangemarg's and census-3d's strategies at zero allocations and
// bit-identical under concurrent calls.
func TestSamplersZeroAllocAndConcurrent(t *testing.T) {
	for _, c := range []struct {
		name   string
		solver linalg.LSSolver
	}{
		{"kron", kronSolver(t, strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2))},
		{"eigen", eigenSolver(t, principalStrategy(t, 8, 16, 16))},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := linalg.SamplerOf(c.solver)
			if s == nil {
				t.Fatal("no sampler")
			}
			r := rand.New(rand.NewSource(59))
			x := randVec(r, 2048)
			assertKernelZeroAllocAndConcurrent(t, c.name+" SampleInto", s.Draws(), 2048, r,
				func(dst, g []float64, ws *linalg.CGWorkspace) error {
					s.SampleInto(dst, x, g, ws)
					return nil
				})
		})
	}
}
