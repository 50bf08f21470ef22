package linalg

import "testing"

// TestEigenSolverMemoryCap: the solver keeps U = Q_R·Δ⁻¹ (|R|·n floats)
// for the strategy's lifetime, so it declines a strategy whose U would
// pass eigenMaxU and leaves it to CGLS. Over 256×256 = 65,536 cells the
// cap admits 8 rows off the tail weight and refuses 9.
func TestEigenSolverMemoryCap(t *testing.T) {
	const side = 256
	const n = side * side
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	kron := NewKronOp(Identity(side), Identity(side))
	for _, tc := range []struct {
		distinct int
		want     bool
	}{{eigenMaxU / n, true}, {eigenMaxU/n + 1, false}} {
		scale := make([]float64, n)
		for i := range scale {
			scale[i] = 0.5
			if i < tc.distinct {
				scale[i] = 1 + float64(i)
			}
		}
		if _, ok := newEigenSolver(ScaleRows(PermuteRows(kron, perm), scale), 1024); ok != tc.want {
			t.Fatalf("%d rows off the tail weight over %d cells: eigen solver %v, want %v", tc.distinct, n, ok, tc.want)
		}
	}
}
