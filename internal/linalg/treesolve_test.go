package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// treeCase builds one interval-forest CSR strategy for the solver tests.
type treeCase struct {
	name  string
	cols  int
	build func(b *SparseBuilder)
}

func treeCases() []treeCase {
	return []treeCase{
		{"single root", 4, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 3, 1)
		}},
		{"identity leaves", 4, func(b *SparseBuilder) {
			for i := 0; i < 4; i++ {
				b.AppendRangeRow(i, i, 1)
			}
		}},
		{"binary tree", 8, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 7, 1)
			b.AppendRangeRow(0, 3, 1)
			b.AppendRangeRow(4, 7, 1)
			b.AppendRangeRow(0, 1, 1)
			b.AppendRangeRow(2, 3, 1)
			b.AppendRangeRow(4, 5, 1)
			b.AppendRangeRow(6, 7, 1)
		}},
		{"weighted tree shuffled rows", 8, func(b *SparseBuilder) {
			b.AppendRangeRow(4, 7, 0.5)
			b.AppendRangeRow(0, 7, 2)
			b.AppendRangeRow(2, 3, 3)
			b.AppendRangeRow(0, 3, 1.5)
			b.AppendRangeRow(0, 1, 0.25)
			b.AppendRangeRow(4, 5, 1)
			b.AppendRangeRow(6, 7, 2)
		}},
		{"forest of two trees", 6, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 2, 1)
			b.AppendRangeRow(0, 0, 2)
			b.AppendRangeRow(1, 2, 1)
			b.AppendRangeRow(3, 5, 1)
			b.AppendRangeRow(3, 4, 0.5)
			b.AppendRangeRow(5, 5, 1)
		}},
		{"uncovered cells", 6, func(b *SparseBuilder) {
			// Cells 2 and 5 are measured by no row: minimum norm pins
			// their estimate to zero, exercising the zeroing path.
			b.AppendRangeRow(0, 1, 1)
			b.AppendRangeRow(3, 4, 2)
			b.AppendRangeRow(3, 3, 1)
			b.AppendRangeRow(4, 4, 1)
		}},
		{"duplicate intervals", 4, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 3, 1)
			b.AppendRangeRow(0, 3, 2)
			b.AppendRangeRow(0, 1, 1)
			b.AppendRangeRow(2, 3, 1)
			b.AppendRangeRow(2, 3, 0.5)
		}},
		{"deep chain with negative weight", 5, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 4, 1)
			b.AppendRangeRow(0, 3, -1)
			b.AppendRangeRow(4, 4, 1)
			b.AppendRangeRow(0, 2, 1)
			b.AppendRangeRow(3, 3, 1)
			b.AppendRangeRow(0, 1, 2)
			b.AppendRangeRow(2, 2, 1)
		}},
	}
}

// TestTreeSolverMatchesPseudoInverse is the correctness pin for the exact
// O(n) tree least squares: on every recognized forest shape, the
// two-pass solve must reproduce the dense minimum-norm pseudo-inverse
// solution, and AnswerInto must reproduce the CSR matvec.
func TestTreeSolverMatchesPseudoInverse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range treeCases() {
		b := NewSparseBuilder(tc.cols)
		tc.build(b)
		s := b.Build()
		ts, ok := NewTreeSolver(s)
		if !ok {
			t.Fatalf("%s: NewTreeSolver refused a valid forest", tc.name)
		}
		if ts.Rows() != s.Rows() || ts.Cols() != s.Cols() {
			t.Fatalf("%s: dims %dx%d, want %dx%d", tc.name, ts.Rows(), ts.Cols(), s.Rows(), s.Cols())
		}
		pinv, err := PseudoInverse(ToDense(s))
		if err != nil {
			t.Fatalf("%s: pinv: %v", tc.name, err)
		}
		ws := &CGWorkspace{}
		dst := make([]float64, tc.cols)
		ans := make([]float64, s.Rows())
		for trial := 0; trial < 20; trial++ {
			y := make([]float64, s.Rows())
			for i := range y {
				y[i] = r.NormFloat64() * 10
			}
			// Dirty dst: the solver must fully overwrite it whether or not
			// the forest covers every cell.
			for j := range dst {
				dst[j] = math.NaN()
			}
			ts.SolveLSInto(dst, y, ws)
			want := MulVec(pinv, y)
			for j := range dst {
				if math.Abs(dst[j]-want[j]) > 1e-8 {
					t.Fatalf("%s trial %d: solve[%d] = %g, want %g", tc.name, trial, j, dst[j], want[j])
				}
			}
			x := make([]float64, tc.cols)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			ts.AnswerInto(ans, x, ws)
			wantAns := MulVec(s, x)
			for i := range ans {
				if math.Abs(ans[i]-wantAns[i]) > 1e-10 {
					t.Fatalf("%s trial %d: answer[%d] = %g, want %g", tc.name, trial, i, ans[i], wantAns[i])
				}
			}
		}
	}
}

// TestTreeSolverRejectsNonForests pins the detector's refusals: anything
// that is not a laminar, exactly-tiled interval forest must fall back to
// the iterative solver rather than return wrong answers.
func TestTreeSolverRejectsNonForests(t *testing.T) {
	cases := []treeCase{
		{"crossing intervals", 6, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 3, 1)
			b.AppendRangeRow(2, 5, 1)
		}},
		{"children undertile parent", 4, func(b *SparseBuilder) {
			b.AppendRangeRow(0, 3, 1)
			b.AppendRangeRow(0, 0, 1)
			b.AppendRangeRow(2, 3, 1) // cell 1 unmeasured under the root
		}},
		{"non-constant row", 3, func(b *SparseBuilder) {
			b.AppendRow([]int{0, 1, 2}, []float64{1, 2, 1})
		}},
		{"non-contiguous row", 4, func(b *SparseBuilder) {
			b.AppendRow([]int{0, 2}, []float64{1, 1})
		}},
		{"zero-weight row", 3, func(b *SparseBuilder) {
			b.AppendRow([]int{0, 1, 2}, []float64{0, 0, 0})
		}},
	}
	for _, tc := range cases {
		b := NewSparseBuilder(tc.cols)
		tc.build(b)
		if _, ok := NewTreeSolver(b.Build()); ok {
			t.Fatalf("%s: NewTreeSolver accepted a non-forest", tc.name)
		}
	}
	if _, ok := NewTreeSolver(Identity(4)); ok {
		t.Fatal("NewTreeSolver accepted a dense operator")
	}
	if _, ok := NewTreeSolver(NewSparseBuilder(3).Build()); ok {
		t.Fatal("NewTreeSolver accepted an empty operator")
	}
}

// TestTreeSolverLooksThroughNormedOp checks the NormedOp unwrap, since
// mechanisms hand their strategy to the detector wrapped.
func TestTreeSolverLooksThroughNormedOp(t *testing.T) {
	b := NewSparseBuilder(4)
	b.AppendRangeRow(0, 3, 1)
	b.AppendRangeRow(0, 1, 1)
	b.AppendRangeRow(2, 3, 1)
	if _, ok := NewTreeSolver(&NormedOp{Operator: b.Build()}); !ok {
		t.Fatal("NewTreeSolver failed to unwrap NormedOp")
	}
}

// TestTreeSolverZeroAlloc pins the hot-path guarantee: once the workspace
// has warmed, solve and answer allocate nothing.
func TestTreeSolverZeroAlloc(t *testing.T) {
	b := NewSparseBuilder(8)
	for _, iv := range [][2]int{{0, 7}, {0, 3}, {4, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		b.AppendRangeRow(iv[0], iv[1], 1)
	}
	s := b.Build()
	ts, ok := NewTreeSolver(s)
	if !ok {
		t.Fatal("NewTreeSolver refused a binary tree")
	}
	ws := &CGWorkspace{}
	y := make([]float64, s.Rows())
	for i := range y {
		y[i] = float64(i + 1)
	}
	dst := make([]float64, s.Cols())
	ans := make([]float64, s.Rows())
	ts.SolveLSInto(dst, y, ws) // warm the workspace
	if n := testing.AllocsPerRun(100, func() {
		ts.SolveLSInto(dst, y, ws)
		ts.AnswerInto(ans, dst, ws)
	}); n != 0 {
		t.Fatalf("tree solve+answer allocates %v per run, want 0", n)
	}
}
