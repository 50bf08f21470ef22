package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/linalg/lintest"
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

// TestKronSamplerTreeRoot: every tree factor takes its own top-down
// root, one draw per cell, so the product of a 128-cell and a 4-cell
// tree draws 128·4 values, and its L is exact.
func TestKronSamplerTreeRoot(t *testing.T) {
	op := strategy.HierarchicalOperator(domain.MustShape(128, 4), 2)
	s := linalg.SamplerOf(kronSolver(t, op))
	if s == nil {
		t.Fatal("no sampler for a product of full-rank trees")
	}
	if s.Draws() != 128*4 {
		t.Fatalf("%d draws, want 128·4", s.Draws())
	}
	assertSamplerExact(t, s, op)
}

// TestTreeSamplerIsSquareRoot: every full-rank interval forest's tree
// solver carries a sampler of one draw per cell whose L is an exact
// square root of (AᵀA)⁻¹. The race build leaves the 1,024-cell tree
// out: its dense pseudo-inverse takes over a minute under the detector.
func TestTreeSamplerIsSquareRoot(t *testing.T) {
	for _, c := range lintest.TreeSamplerCases() {
		if raceEnabled && c.Op.Cols() > 512 {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			s, err := linalg.NewSolver(c.Op, denseCap)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s.(*linalg.TreeSolver); !ok {
				t.Fatalf("solver is a %T, want *linalg.TreeSolver", s)
			}
			sm := linalg.SamplerOf(s)
			if sm == nil || sm.Draws() != c.Op.Cols() {
				t.Fatalf("sampler %v, want one of %d draws", sm, c.Op.Cols())
			}
			assertSamplerExact(t, sm, c.Op)
		})
	}
}

// TestTreeRootSlabMatchesSampleInto runs the slab root on every tree
// sampler case at one column, a few, one column block, one past it and
// two blocks and a remainder: each column equals SampleInto's x + L·g at
// x = 0 bit for bit, writing every entry of a NaN-filled dst, and a
// workspace holds one column block per node.
func TestTreeRootSlabMatchesSampleInto(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, c := range lintest.TreeSamplerCases() {
		s, err := linalg.NewSolver(c.Op, denseCap)
		if err != nil {
			t.Fatal(err)
		}
		ts := s.(*linalg.TreeSolver)
		n := ts.Cols()
		zero, col, want := make([]float64, n), make([]float64, n), make([]float64, n)
		for _, w := range []int{1, 3, linalg.SlabBlock, linalg.SlabBlock + 1, 2*linalg.SlabBlock + 5} {
			g, got := make([]float64, n*w), make([]float64, n*w)
			for i := range g {
				g[i], got[i] = r.NormFloat64(), math.NaN()
			}
			var ws linalg.CGWorkspace
			ts.RootSlab(got, g, w, &ws)
			for k := 0; k < w; k++ {
				for j := range col {
					col[j] = g[j*w+k]
				}
				ts.SampleInto(want, zero, col, &ws)
				for j, v := range want {
					if math.Float64bits(got[j*w+k]) != math.Float64bits(v) {
						t.Fatalf("%s width %d: column %d cell %d = %g, want %g", c.Name, w, k, j, got[j*w+k], v)
					}
				}
			}
			if nb := ts.Rows() * min(w, linalg.SlabBlock); ws.NodeBuf() != nb {
				t.Fatalf("%s width %d: workspace %d values, want %d", c.Name, w, ws.NodeBuf(), nb)
			}
		}
	}
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
// census-rangemarg's and census-3d's strategies and on every tree
// sampler case at zero allocations and bit-identical under concurrent
// calls.
func TestSamplersZeroAllocAndConcurrent(t *testing.T) {
	type samplerCase struct {
		name   string
		solver linalg.LSSolver
		n      int
	}
	cases := []samplerCase{
		{"kron", kronSolver(t, strategy.HierarchicalOperator(domain.MustShape(8, 16, 16), 2)), 2048},
		{"eigen", eigenSolver(t, principalStrategy(t, 8, 16, 16)), 2048},
	}
	for _, c := range lintest.TreeSamplerCases() {
		s, err := linalg.NewSolver(c.Op, denseCap)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, samplerCase{"tree-" + c.Name, s, c.Op.Cols()})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := linalg.SamplerOf(c.solver)
			if s == nil {
				t.Fatal("no sampler")
			}
			n := c.n
			r := rand.New(rand.NewSource(59))
			x := randVec(r, n)
			assertKernelZeroAllocAndConcurrent(t, c.name+" SampleInto", s.Draws(), n, r,
				func(dst, g []float64, ws *linalg.CGWorkspace) error {
					s.SampleInto(dst, x, g, ws)
					return nil
				})
		})
	}
}
