package adaptivemm

import (
	"math"
	"math/rand"
	"testing"
)

// Acceptance: AllRange(2048) — ~2.1M query rows, far past the old dense
// cap — is answered end-to-end via Strategy.Answer without materializing
// the workload matrix.
func TestAnswerAllRange2048MatrixFree(t *testing.T) {
	w := AllRange(2048)
	if w.NumQueries() != 2048*2049/2 {
		t.Fatalf("m = %d", w.NumQueries())
	}
	s, err := HierarchicalStrategy(2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2048)
	for i := range x {
		x[i] = float64(i % 17)
	}
	// Huge ε ⇒ negligible noise: answers must reproduce the exact query
	// values computed independently through the workload operator.
	p := Privacy{Epsilon: 1e9, Delta: 1e-4}
	r := rand.New(rand.NewSource(1))
	ans, err := s.Answer(w, x, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != w.NumQueries() {
		t.Fatalf("answers = %d, want %d", len(ans), w.NumQueries())
	}
	truth := w.MulQueries(x)
	var maxAbs float64
	for i := range truth {
		if d := math.Abs(ans[i] - truth[i]); d > maxAbs {
			maxAbs = d
		}
	}
	// Total over the domain is ~16k; answers should be essentially exact.
	if maxAbs > 1e-3 {
		t.Fatalf("max answer deviation %g at negligible noise", maxAbs)
	}
}

// Acceptance: the 2-D AllRange(64,64) workload (4096 cells, ~4.3M query
// rows) is designed with the factored principal-vector pipeline and
// estimated end-to-end via Strategy.Estimate, all matrix-free.
func TestEstimateAllRange64x64FactoredDesign(t *testing.T) {
	w := AllRange(64, 64)
	s, err := DesignPrincipal(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, w.Cells())
	for i := range x {
		x[i] = float64((i*i + 3) % 23)
	}
	p := Privacy{Epsilon: 1e9, Delta: 1e-4}
	xhat, err := s.Estimate(x, p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var diff, norm float64
	for i := range x {
		d := xhat[i] - x[i]
		diff += d * d
		norm += x[i] * x[i]
	}
	if diff > 1e-12*norm {
		t.Fatalf("relative estimate error %g at negligible noise", diff/norm)
	}

	// A realistic budget must also work and stay finite.
	xhat, err = s.Estimate(x, Privacy{Epsilon: 0.5, Delta: 1e-4}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xhat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite estimate at cell %d", i)
		}
	}

	// The multi-dimensional release path allocates nothing once warmed:
	// CGLS over the permuted Kronecker eigenbasis runs on pooled scratch.
	sc := s.mech.NewScratch()
	r := rand.New(rand.NewSource(4))
	if _, err := s.mech.EstimateGaussianInto(sc, x, p, r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.mech.EstimateGaussianInto(sc, x, p, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warmed EstimateGaussianInto on the factored strategy allocates %v per release, want 0", allocs)
	}
}

// The structured strategies answer arbitrary explicit workloads too — the
// consistency of least squares does not depend on the representation.
func TestHierarchicalStrategyAnswersPrefixWorkload(t *testing.T) {
	w := Prefix(512)
	s, err := HierarchicalStrategy(2, 512)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = float64(i % 5)
	}
	p := Privacy{Epsilon: 1e9, Delta: 1e-4}
	ans, err := s.Answer(w, x, p, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	truth := w.MulQueries(x)
	for i := range truth {
		if math.Abs(ans[i]-truth[i]) > 1e-4 {
			t.Fatalf("prefix query %d: got %g want %g", i, ans[i], truth[i])
		}
	}
}
