package core

import (
	"math"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

var structuredPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

func workloadError(t *testing.T, w *workload.Workload, op linalg.Operator) float64 {
	t.Helper()
	e, err := mm.Error(w, op, structuredPrivacy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The factored branch must reproduce the dense branch: same program, same
// error, for each of the three design entry points.
func TestFactoredMatchesDense(t *testing.T) {
	w := workload.AllRange(domain.MustShape(12, 12))
	cases := []struct {
		name string
		run  func(o Options) (*Result, error)
	}{
		{"design", func(o Options) (*Result, error) { return Design(w, o) }},
		{"separation", func(o Options) (*Result, error) { return EigenSeparation(w, 8, o) }},
		{"principal", func(o Options) (*Result, error) { return PrincipalVectors(w, 6, o) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fact, err := c.run(Options{Pipeline: PipelineFactored})
			if err != nil {
				t.Fatal(err)
			}
			if fact.Strategy != nil {
				t.Fatal("factored result materialized a dense strategy")
			}
			if fact.Op == nil {
				t.Fatal("factored result has no operator")
			}
			dense, err := c.run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if dense.Strategy == nil {
				t.Fatal("dense result missing strategy matrix")
			}
			eF := workloadError(t, w, fact.Op)
			eD := workloadError(t, w, dense.Strategy)
			if math.Abs(eF-eD) > 1e-6*eD {
				t.Fatalf("errors diverge: factored %g vs dense %g", eF, eD)
			}
			// The attached column norms must match the materialized truth.
			got := linalg.OperatorColNorms2(fact.Op)
			want := linalg.ToDense(fact.Op).ColNorms2()
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-8*(1+want[j]) {
					t.Fatalf("column norm %d: %g vs %g", j, got[j], want[j])
				}
			}
		})
	}
}

// Eigenvalues from the factored path must match the dense path (they feed
// the server's lower-bound report).
func TestFactoredEigenvaluesMatchDense(t *testing.T) {
	w := workload.AllRange(domain.MustShape(8, 10))
	fact, err := PrincipalVectors(w, 4, Options{Pipeline: PipelineFactored})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := PrincipalVectors(w, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fact.Eigenvalues) != len(dense.Eigenvalues) {
		t.Fatalf("eigenvalue counts differ: %d vs %d", len(fact.Eigenvalues), len(dense.Eigenvalues))
	}
	for i := range fact.Eigenvalues {
		if math.Abs(fact.Eigenvalues[i]-dense.Eigenvalues[i]) > 1e-8*(1+dense.Eigenvalues[i]) {
			t.Fatalf("eigenvalue %d: %g vs %g", i, fact.Eigenvalues[i], dense.Eigenvalues[i])
		}
	}
}

// The factored pipeline is explicit-request only: requesting it on an
// ineligible workload (no product form, L1 weighting, custom basis) must
// error instead of silently running dense, and the eligibility predicate
// the planner keys on must agree.
func TestFactoredPipelineEligibility(t *testing.T) {
	oneD := workload.AllRange(domain.MustShape(4096))
	if FactoredEligible(oneD) {
		t.Fatal("1-D workload reported factored-eligible")
	}
	if _, err := Design(oneD, Options{Pipeline: PipelineFactored}); err == nil {
		t.Fatal("factored design of a 1-D workload did not error")
	}
	twoD := workload.AllRange(domain.MustShape(12, 12))
	if !FactoredEligible(twoD) {
		t.Fatal("product-form workload not reported factored-eligible")
	}
	if _, err := Design(twoD, Options{Pipeline: PipelineFactored, L1: true}); err == nil {
		t.Fatal("factored design under L1 did not error")
	}
	basis := linalg.Identity(twoD.Cells())
	if _, err := Design(twoD, Options{Pipeline: PipelineFactored, DesignBasis: basis}); err == nil {
		t.Fatal("factored design with a custom basis did not error")
	}
	if _, err := factoredEigen(twoD, Options{}); err != nil {
		t.Fatalf("eligible workload refused the factored branch: %v", err)
	}
}
