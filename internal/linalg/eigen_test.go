package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	eg, err := SymEigen(Diag([]float64{3, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range eg.Values {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatalf("Values = %v, want %v", eg.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	eg, err := SymEigen(NewFromRows([][]float64{{2, 1}, {1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eg.Values[0]-3) > 1e-12 || math.Abs(eg.Values[1]-1) > 1e-12 {
		t.Fatalf("Values = %v", eg.Values)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	v := eg.Vectors.Row(0)
	if math.Abs(math.Abs(v[0])-math.Sqrt2/2) > 1e-12 || math.Abs(v[0]-v[1]) > 1e-12 {
		t.Fatalf("leading eigenvector = %v", v)
	}
}

func TestSymEigenReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		eg, err := SymEigen(a)
		if err != nil {
			return false
		}
		return eg.Reconstruct().Equal(a, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randSPD(r, n)
		eg, err := SymEigen(a)
		if err != nil {
			return false
		}
		// Rows of Vectors must be orthonormal: V Vᵀ = I.
		return eg.Vectors.Mul(eg.Vectors.T()).Equal(Identity(n), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenSortedDescending(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randSPD(r, 12)
	eg, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(eg.Values); i++ {
		if eg.Values[i] > eg.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", eg.Values)
		}
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		a := randSPD(r, n)
		eg, err := SymEigen(a)
		if err != nil {
			return false
		}
		var s float64
		for _, v := range eg.Values {
			s += v
		}
		return math.Abs(s-a.Trace()) < 1e-8*(1+math.Abs(a.Trace()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenEigenEquation(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a := randSPD(r, 9)
	eg, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, lam := range eg.Values {
		v := eg.Vectors.Row(i)
		av := MulVec(a, v)
		for j := range av {
			if math.Abs(av[j]-lam*v[j]) > 1e-8 {
				t.Fatalf("A v != λ v for pair %d", i)
			}
		}
	}
}

func TestSymEigenEmptyAndOne(t *testing.T) {
	eg, err := SymEigen(New(0, 0))
	if err != nil || len(eg.Values) != 0 {
		t.Fatalf("empty eigen: %v %v", eg, err)
	}
	eg, err = SymEigen(NewFromRows([][]float64{{5}}))
	if err != nil || math.Abs(eg.Values[0]-5) > 1e-14 {
		t.Fatalf("1x1 eigen: %v %v", eg, err)
	}
}

func TestSymEigenRepeatedEigenvalues(t *testing.T) {
	// Identity has all eigenvalues 1; vectors must still be orthonormal.
	eg, err := SymEigen(Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eg.Values {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("Values = %v", eg.Values)
		}
	}
	if !eg.Vectors.Mul(eg.Vectors.T()).Equal(Identity(6), 1e-10) {
		t.Fatal("vectors not orthonormal for repeated eigenvalues")
	}
}

func TestRank(t *testing.T) {
	// Gram of a rank-2 matrix.
	a := NewFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}})
	eg, err := SymEigen(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if r := eg.Rank(1e-9); r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
	zero, _ := SymEigen(New(3, 3))
	if r := zero.Rank(1e-9); r != 0 {
		t.Fatalf("Rank of zero = %d", r)
	}
}

func TestPseudoInverseSymProperties(t *testing.T) {
	// For PSD a: a a⁺ a = a and a⁺ a a⁺ = a⁺.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		// Rank-deficient PSD: Gram of a wide matrix.
		b := randMatrix(r, n-1, n)
		a := b.Gram()
		p, err := PseudoInverseSym(a, 1e-10)
		if err != nil {
			return false
		}
		return a.Mul(p).Mul(a).Equal(a, 1e-7) && p.Mul(a).Mul(p).Equal(p, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTracePinvMatchesPseudoInverse: on well-conditioned PSD G and a
// rank-deficient PSD A, TracePinv equals the entrywise trace of G·A⁺ with
// the pseudo-inverse formed at the same cutoff.
func TestTracePinvMatchesPseudoInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		eg, err := SymEigen(randMatrix(r, n-1, n).Gram())
		if err != nil {
			return false
		}
		g := randMatrix(r, n+2, n).Gram()
		got, want := eg.TracePinv(g, 1e-10), g.TraceProduct(eg.PseudoInverse(1e-10))
		return got >= 0 && math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoInverseFullColumnRank(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	a := randMatrix(r, 8, 4)
	p, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	// A⁺A = I for full column rank.
	if !p.Mul(a).Equal(Identity(4), 1e-8) {
		t.Fatal("A⁺A != I")
	}
}

func TestPseudoInverseMoorePenrose(t *testing.T) {
	// Rank-deficient A: check the four Moore-Penrose conditions.
	a := NewFromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {0, 1, 1}})
	p, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	ap := a.Mul(p)
	pa := p.Mul(a)
	if !a.Mul(pa).Equal(a, 1e-8) {
		t.Fatal("A A⁺ A != A")
	}
	if !p.Mul(ap).Equal(p, 1e-8) {
		t.Fatal("A⁺ A A⁺ != A⁺")
	}
	if !ap.Equal(ap.T(), 1e-8) {
		t.Fatal("A A⁺ not symmetric")
	}
	if !pa.Equal(pa.T(), 1e-8) {
		t.Fatal("A⁺ A not symmetric")
	}
}

func TestSymEigenModerateSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(31))
	a := randSPD(r, 64)
	eg, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !eg.Reconstruct().Equal(a, 1e-7) {
		t.Fatal("reconstruction failed at n=64")
	}
}
