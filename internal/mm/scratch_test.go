package mm

import (
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// testTreeStrategy builds a binary interval tree over n = 2^k cells in
// CSR form — the shape the exact tree solver accelerates.
func testTreeStrategy(n int) *linalg.Sparse {
	b := linalg.NewSparseBuilder(n)
	for span := n; span >= 1; span /= 2 {
		for lo := 0; lo < n; lo += span {
			b.AppendRangeRow(lo, lo+span-1, 1)
		}
	}
	return b.Build()
}

// scratchMechanisms returns one mechanism per steady-state inference
// path: dense pseudo-inverse, exact tree least squares, iterative CGLS
// over a write-into operator, and the Kronecker strategy shapes of the
// Census benchmarks — the exact Kronecker solver over two trees, the
// exact Woodbury solver over the factored principal-vectors assembly,
// and CGLS over the same assembly with non-orthogonal factors (n must be
// a power of two ≥ 16).
func scratchMechanisms(t *testing.T, n int) map[string]*Mechanism {
	t.Helper()
	tree := testTreeStrategy(n)
	pinv, err := NewMechanism(linalg.ToDense(tree))
	if err != nil {
		t.Fatal(err)
	}
	cgls, err := NewMechanism(tree)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := NewMechanism(linalg.NewPrefixOp(n))
	if err != nil {
		t.Fatal(err)
	}
	// rangemarg: the Kronecker product of two hierarchical trees.
	kronTree, err := NewMechanism(linalg.NewKronOp(testTreeStrategy(8), testTreeStrategy(n/8)))
	if err != nil {
		t.Fatal(err)
	}
	eigen, err := NewMechanism(testFactoredStrategy(n, true))
	if err != nil {
		t.Fatal(err)
	}
	factored, err := NewMechanism(testFactoredStrategy(n, false))
	if err != nil {
		t.Fatal(err)
	}
	_, pinvOK := pinv.solver.(*linalg.PinvSolver)
	_, treeOK := cgls.solver.(*linalg.TreeSolver)
	_, iterOK := iter.solver.(*linalg.CGLSSolver)
	_, kronOK := kronTree.solver.(*linalg.KronSolver)
	_, eigenOK := eigen.solver.(*linalg.EigenSolver)
	_, factoredOK := factored.solver.(*linalg.CGLSSolver)
	if !pinvOK || !treeOK || !iterOK || !kronOK || !eigenOK || !factoredOK {
		t.Fatalf("solvers: dense-pinv %T, tree-cgls %T, iterative-cgls %T, kron-tree %T, kron-factored-eigen %T, kron-factored-cgls %T",
			pinv.solver, cgls.solver, iter.solver, kronTree.solver, eigen.solver, factored.solver)
	}
	return map[string]*Mechanism{
		"dense-pinv": pinv, "tree-cgls": cgls, "iterative-cgls": iter,
		"kron-tree": kronTree, "kron-factored-eigen": eigen, "kron-factored-cgls": factored,
	}
}

// testFactoredStrategy mirrors the factored principal-vectors assembly
// over n = 8·(n/8) cells: a row-scaled, row-permuted Kronecker product of
// dense factors, stacked on sparse completion rows, with attached column
// norms. With principal set the factors are orthogonal eigenbases and all
// but four rows share one scale, the form the Woodbury solver takes;
// otherwise the factors are random and every row has its own scale.
func testFactoredStrategy(n int, principal bool) linalg.Operator {
	r := rand.New(rand.NewSource(17))
	dense := func(d int) *linalg.Matrix {
		m := linalg.New(d, d)
		for i := range m.Data() {
			m.Data()[i] = r.NormFloat64()
		}
		if principal {
			eg, err := linalg.SymEigen(m.Add(m.T()))
			if err != nil {
				panic(err)
			}
			return eg.Vectors
		}
		return m
	}
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = 0.5 + r.Float64()
		if principal && i >= 4 {
			scales[i] = 0.75
		}
	}
	eigen := linalg.ScaleRows(linalg.PermuteRows(linalg.NewKronOp(dense(8), dense(n/8)), r.Perm(n)), scales)
	op := linalg.StackOps(eigen, linalg.SparseDiag(n, []int{1, n / 2, n - 1}, []float64{0.5, 1, 2}))
	return linalg.WithColNorms(op, linalg.OperatorColNorms2(op), nil)
}

// TestEstimateGaussianIntoZeroAlloc is the allocation regression pin for
// the release hot path: once a mechanism's scratch has warmed, a release
// on the dense-pinv and CGLS paths must allocate nothing.
func TestEstimateGaussianIntoZeroAlloc(t *testing.T) {
	const n = 64
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-5}
	for name, m := range scratchMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			sc := m.NewScratch()
			if _, err := m.EstimateGaussianInto(sc, x, p, r); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, err := m.EstimateGaussianInto(sc, x, p, r); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("warmed EstimateGaussianInto allocates %v per release, want 0", allocs)
			}
		})
	}
}

// TestScratchReleaseMatchesClassic is the bit-identity property: on the
// same deterministic noise stream, the pooled-scratch release entry
// points must produce exactly the values the allocate-per-call paths
// produce — same noise consumption order, same arithmetic, same bits.
func TestScratchReleaseMatchesClassic(t *testing.T) {
	const n = 32
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*13)%11) - 3
	}
	p := Privacy{Epsilon: 0.3, Delta: 1e-6}
	w := workload.FromOperator("prefix", domain.MustShape(n), linalg.NewPrefixOp(n))
	for name, m := range scratchMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				want, err := m.EstimateGaussian(x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sc := m.GetScratch()
				got, err := m.EstimateGaussianInto(sc, x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d: estimate[%d] = %v, classic %v (bit mismatch)", seed, i, got[i], want[i])
					}
				}
				m.PutScratch(sc)

				wantA, err := m.AnswerGaussian(w, x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sc = m.GetScratch()
				gotA, err := m.AnswerGaussianInto(sc, w, x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantA {
					if math.Float64bits(gotA[i]) != math.Float64bits(wantA[i]) {
						t.Fatalf("seed %d: answer[%d] = %v, classic %v (bit mismatch)", seed, i, gotA[i], wantA[i])
					}
				}
				m.PutScratch(sc)

				wantL, err := m.EstimateLaplace(x, 0.4, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sc = m.GetScratch()
				gotL, err := m.EstimateLaplaceInto(sc, x, 0.4, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantL {
					if math.Float64bits(gotL[i]) != math.Float64bits(wantL[i]) {
						t.Fatalf("seed %d: laplace[%d] = %v, classic %v (bit mismatch)", seed, i, gotL[i], wantL[i])
					}
				}
				m.PutScratch(sc)
			}
		})
	}
}

// TestStrategyAnswersMatchOperator: a release's strategy answers equal the
// strategy operator's own product A·x to 1e-12 relative on every solver
// path, and the tree and Kronecker-of-trees mechanisms answer through
// their solvers.
func TestStrategyAnswersMatchOperator(t *testing.T) {
	const n = 64
	r := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for name, m := range scratchMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			_, viaSolver := m.solver.(strategyAnswerer)
			if want := name == "tree-cgls" || name == "kron-tree"; viaSolver != want {
				t.Fatalf("solver %T answers the strategy: %v, want %v", m.solver, viaSolver, want)
			}
			sc := m.NewScratch()
			got := make([]float64, m.a.Rows())
			m.answersInto(got, x, sc)
			want := linalg.MulVec(m.a, x)
			var scale, diff float64
			for i := range want {
				scale = max(scale, math.Abs(want[i]))
				diff = max(diff, math.Abs(got[i]-want[i]))
			}
			if diff > 1e-12*max(1, scale) {
				t.Fatalf("max |answer − A·x| = %g, max |A·x| = %g", diff, scale)
			}
		})
	}
}
