package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivemm/internal/linalg"
)

// scaleInvariantObjective is the quantity both solvers minimize up to
// scaling: (max_j (Bᵀu)_j)^p · Σ c_i/u_i^p. For a normalized solution the
// first factor is 1 and this reduces to the program objective.
func scaleInvariantObjective(p *Program, u []float64) float64 {
	return ipow(p.MaxConstraint(u), p.Power) * p.Objective(u)
}

func TestValidate(t *testing.T) {
	good := &Program{C: []float64{1, 2}, B: linalg.Identity(2), Power: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := []*Program{
		{C: []float64{1}, B: linalg.Identity(2), Power: 1},               // length mismatch
		{C: []float64{1, -1}, B: linalg.Identity(2), Power: 1},           // negative cost
		{C: []float64{1, 1}, B: linalg.Identity(2), Power: 3},            // bad power
		{C: []float64{1, 1}, B: nil, Power: 1},                           // nil B
		{C: []float64{1, 1}, B: linalg.Diag([]float64{1, -1}), Power: 1}, // negative B
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad program %d accepted", i)
		}
	}
}

func TestBarrierBoxConstraints(t *testing.T) {
	// B = I: minimize c1/u1 + c2/u2 s.t. u ≤ 1 → u = (1,1).
	p := &Program{C: []float64{3, 5}, B: linalg.Identity(2), Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range u {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("u[%d] = %g, want 1", i, v)
		}
	}
}

func TestBarrierSimplexAnalytic(t *testing.T) {
	// Single constraint u1+u2 ≤ 1: optimum u_i = √c_i / (√c1+√c2).
	c1, c2 := 4.0, 9.0
	b := linalg.NewFromRows([][]float64{{1}, {1}})
	p := &Program{C: []float64{c1, c2}, B: b, Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := math.Sqrt(c1), math.Sqrt(c2)
	want := []float64{s1 / (s1 + s2), s2 / (s1 + s2)}
	for i := range u {
		if math.Abs(u[i]-want[i]) > 1e-4 {
			t.Fatalf("u = %v, want %v", u, want)
		}
	}
}

func TestBarrierSimplexAnalyticPower2(t *testing.T) {
	// Power 2, single constraint: 2c_i/u_i³ = μ → u_i ∝ c_i^{1/3}.
	c1, c2 := 1.0, 8.0
	b := linalg.NewFromRows([][]float64{{1}, {1}})
	p := &Program{C: []float64{c1, c2}, B: b, Power: 2}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	// c2/c1 = 8 → u2/u1 = 2.
	if math.Abs(u[1]/u[0]-2) > 1e-3 {
		t.Fatalf("u2/u1 = %g, want 2 (u=%v)", u[1]/u[0], u)
	}
	if math.Abs(u[0]+u[1]-1) > 1e-6 {
		t.Fatalf("constraint not tight: %v", u)
	}
}

func TestBarrierZeroCostVariableDropped(t *testing.T) {
	b := linalg.Identity(3)
	p := &Program{C: []float64{2, 0, 3}, B: b, Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	if u[1] != 0 {
		t.Fatalf("zero-cost variable got weight %g", u[1])
	}
	if u[0] < 0.99 || u[2] < 0.99 {
		t.Fatalf("active variables should saturate: %v", u)
	}
}

func TestBarrierAllZeroCosts(t *testing.T) {
	p := &Program{C: []float64{0, 0}, B: linalg.Identity(2), Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	if u[0] != 0 || u[1] != 0 {
		t.Fatalf("u = %v, want zeros", u)
	}
}

func TestBarrierFeasibilityAndSaturation(t *testing.T) {
	// On random doubly-stochastic-like B from an orthogonal Q, the solution
	// must be feasible with max constraint exactly 1 after normalization.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		q := randomOrthogonal(r, n)
		b := q.Hadamard(q)
		c := make([]float64, n)
		for i := range c {
			c[i] = 0.1 + r.Float64()*5
		}
		p := &Program{C: c, B: b, Power: 1}
		u, err := SolveBarrier(p)
		if err != nil {
			return false
		}
		if !p.Feasible(u, 1e-9) {
			return false
		}
		return math.Abs(p.MaxConstraint(u)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierLocalOptimality(t *testing.T) {
	// Random feasible perturbations around the solution cannot improve the
	// scale-invariant objective: a first-order certificate of optimality.
	r := rand.New(rand.NewSource(42))
	n := 6
	q := randomOrthogonal(r, n)
	b := q.Hadamard(q)
	c := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + r.Float64()*4
	}
	p := &Program{C: c, B: b, Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	base := scaleInvariantObjective(p, u)
	for trial := 0; trial < 200; trial++ {
		cand := make([]float64, n)
		for i := range cand {
			cand[i] = u[i] * math.Exp(0.05*r.NormFloat64())
		}
		if scaleInvariantObjective(p, cand) < base*(1-1e-6) {
			t.Fatalf("perturbation improved objective: %g < %g", scaleInvariantObjective(p, cand), base)
		}
	}
}

func TestFirstOrderMatchesBarrier(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		q := randomOrthogonal(r, n)
		b := q.Hadamard(q)
		c := make([]float64, n)
		for i := range c {
			c[i] = 0.1 + r.Float64()*10
		}
		p := &Program{C: c, B: b, Power: 1}
		ub, err := SolveBarrier(p)
		if err != nil {
			return false
		}
		uf, err := SolveFirstOrder(p, FirstOrderOptions{})
		if err != nil {
			return false
		}
		if !p.Feasible(uf, 1e-9) {
			return false
		}
		ob := scaleInvariantObjective(p, ub)
		of := scaleInvariantObjective(p, uf)
		// The first-order solver should be within 3% of the interior point.
		return of <= ob*1.03
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstOrderPower2(t *testing.T) {
	c1, c2 := 1.0, 8.0
	b := linalg.NewFromRows([][]float64{{1}, {1}})
	p := &Program{C: []float64{c1, c2}, B: b, Power: 2}
	u, err := SolveFirstOrder(p, FirstOrderOptions{Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[1]/u[0]-2) > 0.05 {
		t.Fatalf("u2/u1 = %g, want 2 (u=%v)", u[1]/u[0], u)
	}
}

func TestNormalize(t *testing.T) {
	p := &Program{C: []float64{1, 1}, B: linalg.Identity(2), Power: 1}
	u := []float64{0.5, 0.25}
	p.Normalize(u)
	if u[0] != 1 || u[1] != 0.5 {
		t.Fatalf("Normalize = %v", u)
	}
	zero := []float64{0, 0}
	p.Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("Normalize of zero changed it: %v", zero)
	}
}

func TestObjectiveEdgeCases(t *testing.T) {
	p := &Program{C: []float64{1, 0}, B: linalg.Identity(2), Power: 1}
	if v := p.Objective([]float64{0, 1}); !math.IsInf(v, 1) {
		t.Fatalf("Objective with zero u on positive cost = %g, want +Inf", v)
	}
	if v := p.Objective([]float64{1, 0}); v != 1 {
		t.Fatalf("Objective ignoring zero-cost variable = %g, want 1", v)
	}
}

func TestBarrierLargerInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(99))
	n := 48
	q := randomOrthogonal(r, n)
	b := q.Hadamard(q)
	c := make([]float64, n)
	for i := range c {
		c[i] = math.Exp(2 * r.NormFloat64()) // wide dynamic range
	}
	p := &Program{C: c, B: b, Power: 1}
	u, err := SolveBarrier(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(u, 1e-9) {
		t.Fatal("infeasible solution")
	}
	// Must beat the naive uniform weighting.
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = 1
	}
	p.Normalize(uni)
	if scaleInvariantObjective(p, u) > scaleInvariantObjective(p, uni) {
		t.Fatal("optimized weights worse than uniform")
	}
}

// randomOrthogonal builds a random orthogonal matrix via Gram-Schmidt on a
// Gaussian matrix.
func randomOrthogonal(r *rand.Rand, n int) *linalg.Matrix {
	m := linalg.New(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		// Orthogonalize against previous rows.
		for k := 0; k < i; k++ {
			prev := m.Row(k)
			var dot float64
			for j := range row {
				dot += row[j] * prev[j]
			}
			for j := range row {
				row[j] -= dot * prev[j]
			}
		}
		var norm float64
		for _, v := range row {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for j := range row {
			row[j] /= norm
		}
	}
	return m
}
