// Package lintest builds the full-rank interval forests on which the
// linalg and mm tests both check the tree sampler: range1d-batch's binary
// tree over 1,024 cells, a weighted ternary tree over a cell count that is
// not a power of three, a forest of several roots (one a lone cell) and a
// chain of duplicate intervals, whose one-child nodes take no draw.
package lintest

import (
	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/strategy"
)

// Case is a named strategy.
type Case struct {
	Name string
	Op   linalg.Operator
}

// TreeSamplerCases returns the forests of the package comment.
func TreeSamplerCases() []Case {
	dup := linalg.NewSparseBuilder(4)
	for _, r := range []struct {
		lo, hi int
		w      float64
	}{{0, 3, 1}, {0, 3, 2}, {0, 1, 0.5}, {0, 1, 1}, {0, 0, 1}, {1, 1, 3}, {2, 3, 1}, {2, 2, 1}, {3, 3, 1}, {3, 3, 0.25}} {
		dup.AppendRangeRow(r.lo, r.hi, r.w)
	}
	return []Case{
		{"allrange-1024", strategy.HierarchicalOperator(domain.MustShape(1024), 2)},
		{"weighted-ternary-10", intervalForest(10, 3, [2]int{0, 9})},
		{"forest", intervalForest(12, 2, [2]int{0, 4}, [2]int{5, 5}, [2]int{6, 11})},
		{"duplicate-chain", dup.Build()},
	}
}

// intervalForest returns a CSR interval forest over n cells whose roots
// span the given intervals: each node splits into up to branch
// nearly-equal parts down to single cells, and weighs 1 + depth/2 +
// (lo mod 3)/10, so weights differ within and across levels.
func intervalForest(n, branch int, roots ...[2]int) *linalg.Sparse {
	b := linalg.NewSparseBuilder(n)
	var split func(lo, hi, depth int)
	split = func(lo, hi, depth int) {
		b.AppendRangeRow(lo, hi, 1+float64(depth)/2+float64(lo%3)/10)
		size := hi - lo + 1
		if size == 1 {
			return
		}
		parts := min(branch, size)
		for p, at := 0, lo; p < parts; p++ {
			step := size / parts
			if p < size%parts {
				step++
			}
			split(at, at+step-1, depth+1)
			at += step
		}
	}
	for _, r := range roots {
		split(r[0], r[1], 0)
	}
	return b.Build()
}
