package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randVec returns a deterministic random vector.
func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func vecsClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	var scale float64
	for _, v := range want {
		scale += v * v
	}
	scale = 1 + math.Sqrt(scale)
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*scale {
			t.Fatalf("%s: entry %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

// checkOperatorAgainstDense verifies MulVec, MulVecT, Gram and column
// norms of op against its dense materialization.
func checkOperatorAgainstDense(t *testing.T, op Operator, seed int64, label string) {
	t.Helper()
	dense := ToDense(op)
	if dense.Rows() != op.Rows() || dense.Cols() != op.Cols() {
		t.Fatalf("%s: dense is %dx%d, operator claims %dx%d", label, dense.Rows(), dense.Cols(), op.Rows(), op.Cols())
	}
	r := rand.New(rand.NewSource(seed))
	x := randVec(r, op.Cols())
	y := randVec(r, op.Rows())
	vecsClose(t, MulVec(op, x), MulVec(dense, x), 1e-11, label+" MulVec")
	vecsClose(t, MulVecT(op, y), MulVecT(dense, y), 1e-11, label+" MulVecT")
	vecsClose(t, OperatorColNorms2(op), dense.ColNorms2(), 1e-11, label+" ColNorms2")
	vecsClose(t, OperatorColNormsL1(op), dense.ColNormsL1(), 1e-11, label+" ColNormsL1")
	g := OperatorGram(op)
	gd := dense.Gram()
	if !g.Equal(gd, 1e-9*(1+gd.FrobeniusNorm())) {
		t.Fatalf("%s: Gram mismatch", label)
	}
}

func TestIdentityOp(t *testing.T) {
	checkOperatorAgainstDense(t, Eye(7), 1, "Eye(7)")
}

func TestPrefixOp(t *testing.T) {
	op := NewPrefixOp(9)
	checkOperatorAgainstDense(t, op, 2, "Prefix(9)")
	// Dense prefix matrix is lower-triangular ones.
	d := ToDense(op)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			want := 0.0
			if j <= i {
				want = 1
			}
			if d.At(i, j) != want {
				t.Fatalf("prefix(%d,%d) = %g", i, j, d.At(i, j))
			}
		}
	}
}

func TestIntervalsOp(t *testing.T) {
	for _, d := range []int{1, 2, 5, 8} {
		op := NewIntervalsOp(d)
		if op.Rows() != d*(d+1)/2 {
			t.Fatalf("Intervals(%d) rows = %d", d, op.Rows())
		}
		checkOperatorAgainstDense(t, op, int64(d), "Intervals")
		// Every dense row is a contiguous block of ones.
		m := ToDense(op)
		r := 0
		for lo := 0; lo < d; lo++ {
			for hi := lo; hi < d; hi++ {
				for j := 0; j < d; j++ {
					want := 0.0
					if j >= lo && j <= hi {
						want = 1
					}
					if m.At(r, j) != want {
						t.Fatalf("interval row (%d,%d) col %d = %g", lo, hi, j, m.At(r, j))
					}
				}
				r++
			}
		}
	}
}

func TestSparseOp(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dense := randMatrix(r, 12, 7)
	// Zero out ~half the entries.
	for i := range dense.data {
		if r.Intn(2) == 0 {
			dense.data[i] = 0
		}
	}
	sp := SparseFromMatrix(dense)
	checkOperatorAgainstDense(t, sp, 4, "Sparse")
	if !ToDense(sp).Equal(dense, 0) {
		t.Fatal("Sparse round-trip changed values")
	}
}

func TestSparseBuilderRangeRow(t *testing.T) {
	b := NewSparseBuilder(5)
	b.AppendRangeRow(1, 3, 2)
	b.AppendConstRow([]int{0, 4}, -1)
	sp := b.Build()
	d := ToDense(sp)
	want := NewFromRows([][]float64{{0, 2, 2, 2, 0}, {-1, 0, 0, 0, -1}})
	if !d.Equal(want, 0) {
		t.Fatalf("builder rows wrong:\n%v", d)
	}
}

func TestKronOp(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randMatrix(r, 3, 4)
	b := randMatrix(r, 2, 5)
	c := randMatrix(r, 4, 2)
	op := NewKronOp(a, b, c)
	dense := KroneckerAll(a, b, c)
	if !ToDense(op).Equal(dense, 1e-10) {
		t.Fatal("KronOp dense mismatch")
	}
	checkOperatorAgainstDense(t, op, 6, "Kron(dense,dense,dense)")
}

func TestKronOpMixedFactors(t *testing.T) {
	op := NewKronOp(NewIntervalsOp(3), Eye(2), NewPrefixOp(3))
	checkOperatorAgainstDense(t, op, 7, "Kron(intervals,eye,prefix)")
}

func TestStackScalePermuteOps(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randMatrix(r, 4, 6)
	b := randMatrix(r, 3, 6)
	st := StackOps(a, b)
	wantStack := StackRows(a, b)
	if !ToDense(st).Equal(wantStack, 1e-12) {
		t.Fatal("StackOps mismatch")
	}
	checkOperatorAgainstDense(t, st, 9, "Stack")

	checkOperatorAgainstDense(t, ScaleOp(a, -2.5), 10, "Scale")

	scale := randVec(r, 7)
	checkOperatorAgainstDense(t, ScaleRows(st, scale), 11, "ScaleRows")

	perm := []int{6, 0, 3, 3, 1}
	pr := PermuteRows(st, perm)
	prDense := ToDense(pr)
	for i, p := range perm {
		for j := 0; j < 6; j++ {
			if prDense.At(i, j) != wantStack.At(p, j) {
				t.Fatalf("PermuteRows row %d != base row %d", i, p)
			}
		}
	}
	checkOperatorAgainstDense(t, pr, 12, "PermuteRows")
}

func TestScaledOpDoesNotMutateBaseNorms(t *testing.T) {
	base := WithColNorms(Eye(3), []float64{1, 2, 3}, []float64{1, 2, 3})
	s := ScaleOp(base, 2)
	first := MaxColNorm2Op(s)
	second := MaxColNorm2Op(s)
	if first != second {
		t.Fatalf("repeated sensitivity reads differ: %g vs %g", first, second)
	}
	if cn := base.ColNorms2(); cn[0] != 1 || cn[2] != 3 {
		t.Fatalf("base norm cache corrupted: %v", cn)
	}
	if l1 := MaxColNormL1Op(s); MaxColNormL1Op(s) != l1 {
		t.Fatal("repeated L1 sensitivity reads differ")
	}
}

func TestWithColNorms(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randMatrix(r, 5, 4)
	cn2 := a.ColNorms2()
	op := WithColNorms(a, cn2, nil)
	vecsClose(t, OperatorColNorms2(op), cn2, 0, "attached norms")
	vecsClose(t, OperatorColNormsL1(op), a.ColNormsL1(), 1e-12, "fallback L1 norms")
	checkOperatorAgainstDense(t, op, 14, "WithColNorms")
}

func TestKronEigenFactoredMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	mk := func(d int) *EigenSym {
		m := randMatrix(r, d, d)
		eg, err := SymEigen(m.Gram()) // SPD-ish symmetric input
		if err != nil {
			t.Fatal(err)
		}
		return eg
	}
	e1, e2 := mk(3), mk(4)
	dense := KronEigen(e1, e2)
	fact := KronEigenFactored(e1, e2)
	vecsClose(t, fact.Values, dense.Values, 1e-12, "factored eigenvalues")
	for i := 0; i < fact.N(); i++ {
		vecsClose(t, fact.Row(i), dense.Vectors.Row(i), 1e-12, "factored row")
	}
	qd := ToDense(fact.VectorsOperator())
	if !qd.Equal(dense.Vectors, 1e-12) {
		t.Fatal("VectorsOperator mismatch")
	}
}

// solveCGLS runs SolveCGLSInto with a fresh destination and workspace.
func solveCGLS(a Operator, b []float64, o CGOptions) ([]float64, error) {
	x := make([]float64, a.Cols())
	if err := SolveCGLSInto(a, b, x, o, &CGWorkspace{}); err != nil {
		return nil, err
	}
	return x, nil
}

func TestSolveCGLSMatchesPseudoInverse(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 5; trial++ {
		n := 5 + r.Intn(20)
		m := n + r.Intn(2*n)
		a := randMatrix(r, m, n)
		pinv, err := PseudoInverse(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randVec(r, m)
		want := MulVec(pinv, b)
		got, err := solveCGLS(a, b, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		vecsClose(t, got, want, 1e-9, "CGLS vs pinv")
	}
}

func TestSolveCGLSRankDeficientMinNorm(t *testing.T) {
	// Rank-1 matrix: the min-norm least-squares solution is what the
	// pseudo-inverse produces; CGLS from x0=0 must agree.
	a := NewFromRows([][]float64{{1, 2, 3}, {2, 4, 6}})
	pinv, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 5}
	want := MulVec(pinv, b)
	got, err := solveCGLS(a, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vecsClose(t, got, want, 1e-10, "rank-deficient CGLS")
}

// TestSolveCGLSNotConverged: a CGLS or normal-equation CG solve that
// runs out of MaxIter reports ErrCGNotConverged with the iteration count
// and residual reached, instead of returning its unconverged iterate as
// the solution.
func TestSolveCGLSNotConverged(t *testing.T) {
	a := NewPrefixOp(64)
	b := randVec(rand.New(rand.NewSource(3)), 64)
	solvers := map[string]func(CGOptions) ([]float64, error){
		"cgls":      func(o CGOptions) ([]float64, error) { return solveCGLS(a, b, o) },
		"normal-cg": func(o CGOptions) ([]float64, error) { return SolveNormalCG(a, b, o) },
	}
	for name, solve := range solvers {
		x, err := solve(CGOptions{MaxIter: 1})
		if !errors.Is(err, ErrCGNotConverged) || errors.Is(err, ErrCGDiverged) || x != nil {
			t.Fatalf("%s, MaxIter 1: x = %v, err = %v; want no solution and ErrCGNotConverged", name, x, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "1 iterations") || !strings.Contains(msg, "relative residual") {
			t.Fatalf("%s: error %q does not report the iterations and residual", name, msg)
		}
		if _, err := solve(CGOptions{}); err != nil {
			t.Fatalf("%s, default options: %v", name, err)
		}
	}
}

func TestSolveNormalCG(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randMatrix(r, 12, 6)
	g := a.Gram()
	x := randVec(r, 6)
	b := MulVec(g, x)
	got, err := SolveNormalCG(a, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vecsClose(t, got, x, 1e-8, "normal CG")
}
