package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{3, 5})
	// 2x+y=3, x+3y=5 -> x=4/5, y=7/5
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("FactorLU(singular) err = %v, want ErrSingular", err)
	}
}

func TestLUSolvePermutedSystem(t *testing.T) {
	// Force pivoting with a zero on the leading diagonal.
	a := NewFromRows([][]float64{{0, 1}, {1, 0}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{2, 3})
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewFromRows([][]float64{{4, 2}, {2, 3}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.l
	if !l.Mul(l.T()).Equal(a, 1e-12) {
		t.Fatalf("LLᵀ != a: %v", l)
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		x1 := c.Solve(b)
		x2 := lu.Solve(b)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrSingular {
		t.Fatalf("FactorCholesky(indefinite) err = %v, want ErrSingular", err)
	}
}

func TestSolveSPDFallback(t *testing.T) {
	// A singular PSD matrix: SolveSPD should still produce a finite answer
	// via the ridge fallback.
	a := NewFromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("SolveSPD returned non-finite %v", x)
		}
	}
}

func TestSolveSPDAgreesWithCholesky(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randSPD(r, 5)
	b := []float64{1, 2, 3, 4, 5}
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := MulVec(a, x)
	for i := range got {
		if math.Abs(got[i]-b[i]) > 1e-8 {
			t.Fatalf("residual too large: got %v want %v", got, b)
		}
	}
}
