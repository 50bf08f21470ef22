package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randMatrix returns a deterministic pseudo-random matrix for tests.
func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = r.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive-definite matrix.
func randSPD(r *rand.Rand, n int) *Matrix {
	b := randMatrix(r, n+2, n)
	g := b.Gram()
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+0.5)
	}
	return g
}

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewFromRowsAndAt(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("bad entries: %v", m)
	}
}

func TestNewFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestNewFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(4)
	d := Diag([]float64{1, 1, 1, 1})
	if !id.Equal(d, 0) {
		t.Fatal("Identity(4) != Diag(ones)")
	}
	d2 := Diag([]float64{2, 3})
	if d2.At(0, 0) != 2 || d2.At(1, 1) != 3 || d2.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d2)
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(2, 0) != 3 || mt.At(1, 1) != 5 {
		t.Fatalf("transpose entries wrong: %v", mt)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMatrix(r, 1+r.Intn(8), 1+r.Intn(8))
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randMatrix(r, 5, 7)
	if !Identity(5).Mul(m).Equal(m, 1e-14) {
		t.Fatal("I*m != m")
	}
	if !m.Mul(Identity(7)).Equal(m, 1e-14) {
		t.Fatal("m*I != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Fatalf("a*b = %v, want %v", got, want)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 3, 4)
		b := randMatrix(r, 4, 5)
		c := randMatrix(r, 5, 2)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeIdentity(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 4, 3)
		b := randMatrix(r, 3, 5)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-11)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randMatrix(r, 6, 4)
	v := []float64{1, -2, 0.5, 3}
	got := MulVec(a, v)
	want := a.Mul(NewFromData(4, 1, append([]float64(nil), v...)))
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestTMulVecMatchesTransposeMul(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, cols := range []int{4, 7} { // 7 leaves a tail past the unrolled loop
		a := randMatrix(r, 6, cols)
		v := make([]float64, 6)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		got := MulVecT(a, v)
		want := MulVec(a.T(), v)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%d columns: MulVecT[%d] = %g, want %g", cols, i, got[i], want[i])
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.Add(b); !got.Equal(NewFromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(a); !got.Equal(New(2, 2), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestHadamard(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{2, 0}, {-1, 3}})
	want := NewFromRows([][]float64{{2, 0}, {-3, 12}})
	if got := a.Hadamard(b); !got.Equal(want, 0) {
		t.Fatalf("Hadamard = %v, want %v", got, want)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 2+r.Intn(6), 1+r.Intn(6))
		return a.Gram().Equal(a.T().Mul(a), 1e-11)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAndTraceProduct(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if a.Trace() != 5 {
		t.Fatalf("Trace = %g", a.Trace())
	}
	r := rand.New(rand.NewSource(3))
	x := randMatrix(r, 4, 6)
	y := randMatrix(r, 6, 4)
	want := x.Mul(y).Trace()
	if got := x.TraceProduct(y); math.Abs(got-want) > 1e-11 {
		t.Fatalf("TraceProduct = %g, want %g", got, want)
	}
}

func TestColumnNorms(t *testing.T) {
	m := NewFromRows([][]float64{{3, -1}, {4, 1}})
	n2 := m.ColNorms2()
	if math.Abs(n2[0]-25) > 1e-14 || math.Abs(n2[1]-2) > 1e-14 {
		t.Fatalf("ColNorms2 = %v", n2)
	}
	n1 := m.ColNormsL1()
	if n1[0] != 7 || n1[1] != 2 {
		t.Fatalf("ColNormsL1 = %v", n1)
	}
	if m.MaxColNorm2() != 5 {
		t.Fatalf("MaxColNorm2 = %g", m.MaxColNorm2())
	}
	if m.MaxColNormL1() != 7 {
		t.Fatalf("MaxColNormL1 = %g", m.MaxColNormL1())
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewFromRows([][]float64{{3, 4}})
	if m.FrobeniusNorm() != 5 {
		t.Fatalf("FrobeniusNorm = %g", m.FrobeniusNorm())
	}
}

func TestStackRows(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{3, 4}, {5, 6}})
	s := StackRows(a, b)
	want := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !s.Equal(want, 0) {
		t.Fatalf("StackRows = %v", s)
	}
}

func TestKroneckerKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{0, 1}, {1, 0}})
	got := Kronecker(a, b)
	want := NewFromRows([][]float64{{0, 1, 0, 2}, {1, 0, 2, 0}})
	if !got.Equal(want, 0) {
		t.Fatalf("Kronecker = %v, want %v", got, want)
	}
}

func TestKroneckerMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 2, 3)
		b := randMatrix(r, 2, 2)
		c := randMatrix(r, 3, 2)
		d := randMatrix(r, 2, 3)
		left := Kronecker(a, b).Mul(Kronecker(c, d))
		right := Kronecker(a.Mul(c), b.Mul(d))
		return left.Equal(right, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKroneckerAll(t *testing.T) {
	if got := KroneckerAll(); got.Rows() != 1 || got.Cols() != 1 || got.At(0, 0) != 1 {
		t.Fatalf("KroneckerAll() = %v", got)
	}
	a := Identity(2)
	b := Identity(3)
	if got := KroneckerAll(a, b); !got.Equal(Identity(6), 0) {
		t.Fatalf("KroneckerAll(I2,I3) != I6")
	}
}

func TestPermuteCols(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	p := m.PermuteCols([]int{2, 0, 1})
	want := NewFromRows([][]float64{{3, 1, 2}, {6, 4, 5}})
	if !p.Equal(want, 0) {
		t.Fatalf("PermuteCols = %v, want %v", p, want)
	}
}

func TestPermuteColsPreservesColNorms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := randMatrix(r, 4, n)
		perm := r.Perm(n)
		a := m.ColNorms2()
		b := m.PermuteCols(perm).ColNorms2()
		for j, p := range perm {
			if math.Abs(b[j]-a[p]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewFromRows([][]float64{{1, 2}})
	if s := small.String(); s == "" {
		t.Fatal("empty String for small matrix")
	}
	big := New(50, 50)
	if s := big.String(); s != "Matrix(50x50)" {
		t.Fatalf("String for big matrix = %q", s)
	}
}
