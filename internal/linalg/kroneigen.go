package linalg

import (
	"sort"
)

// KronEigen composes the eigendecomposition of a Kronecker product
// G₁ ⊗ G₂ ⊗ … from the decompositions of its factors: the eigenvalues are
// all products of per-factor eigenvalues and the eigenvectors the
// corresponding Kronecker products of per-factor eigenvectors. For a
// product workload on [64·32] this replaces one O(2048³) decomposition
// with O(64³ + 32³) ones — the trick that makes the paper's full-scale
// multi-dimensional experiments fast.
//
// The result is sorted by descending eigenvalue like SymEigen.
func KronEigen(factors ...*EigenSym) *EigenSym {
	if len(factors) == 0 {
		return &EigenSym{Values: []float64{1}, Vectors: NewFromRows([][]float64{{1}})}
	}
	n := 1
	for _, f := range factors {
		n *= len(f.Values)
	}
	// Enumerate all index combinations with their eigenvalue products.
	type pair struct {
		val float64
		idx []int
	}
	pairs := make([]pair, 0, n)
	idx := make([]int, len(factors))
	for {
		v := 1.0
		for fi, f := range factors {
			v *= f.Values[idx[fi]]
		}
		pairs = append(pairs, pair{v, append([]int(nil), idx...)})
		// Odometer.
		k := len(factors) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(factors[k].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].val > pairs[b].val })

	values := make([]float64, n)
	vectors := New(n, n)
	vecs := eigenVectors(factors)
	for r, pr := range pairs {
		values[r] = pr.val
		kronRowInto(vectors.Row(r), vecs, pr.idx)
	}
	return &EigenSym{Values: values, Vectors: vectors}
}

// FactoredEigen is the eigendecomposition of a Kronecker product
// G₁ ⊗ G₂ ⊗ … kept in factored form: only the per-factor decompositions
// (O(Σ dᵢ²) memory) are stored, never the n×n eigenvector matrix. Rows can
// be materialized individually on demand, and the full eigenvector matrix
// is available as a matrix-free Operator, which is what lets the
// Eigen-Design pipeline run on product domains far past the dense cap.
type FactoredEigen struct {
	// Factors holds the per-dimension decompositions.
	Factors []*EigenSym
	// Values are the eigenvalue products in descending order, matching
	// KronEigen's ordering exactly.
	Values []float64
	// perm maps sorted position r to the flat Kronecker row index.
	perm []int
	// dims caches the per-factor sizes.
	dims []int
}

// KronEigenFactored composes the factored eigendecomposition of a
// Kronecker product from per-factor decompositions, sorted by descending
// eigenvalue product, without materializing eigenvectors.
func KronEigenFactored(factors ...*EigenSym) *FactoredEigen {
	if len(factors) == 0 {
		return &FactoredEigen{
			Factors: nil,
			Values:  []float64{1},
			perm:    []int{0},
			dims:    nil,
		}
	}
	dims := make([]int, len(factors))
	n := 1
	for i, f := range factors {
		dims[i] = len(f.Values)
		n *= dims[i]
	}
	vals := make([]float64, n)
	idx := make([]int, len(factors))
	for flat := 0; flat < n; flat++ {
		v := 1.0
		for fi, f := range factors {
			v *= f.Values[idx[fi]]
		}
		vals[flat] = v
		// Odometer over the multi-index (last factor fastest), matching
		// flat = ((i₁·d₂ + i₂)·d₃ + i₃)…
		k := len(factors) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < dims[k] {
				break
			}
			idx[k] = 0
			k--
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return vals[perm[a]] > vals[perm[b]] })
	values := make([]float64, n)
	for r, p := range perm {
		values[r] = vals[p]
	}
	return &FactoredEigen{Factors: factors, Values: values, perm: perm, dims: dims}
}

// N returns the composite dimension Π dᵢ.
func (fe *FactoredEigen) N() int { return len(fe.Values) }

// multiIndex decomposes sorted position r into per-factor indices.
func (fe *FactoredEigen) multiIndex(r int) []int {
	flat := fe.perm[r]
	idx := make([]int, len(fe.dims))
	for k := len(fe.dims) - 1; k >= 0; k-- {
		idx[k] = flat % fe.dims[k]
		flat /= fe.dims[k]
	}
	return idx
}

// Row materializes the eigenvector for Values[r] as a length-n slice: the
// Kronecker product of the per-factor eigenvector rows. Cost O(n).
func (fe *FactoredEigen) Row(r int) []float64 {
	dst := make([]float64, fe.N())
	kronRowInto(dst, eigenVectors(fe.Factors), fe.multiIndex(r))
	return dst
}

// VectorsOperator returns the full eigenvector matrix Q (rows sorted by
// descending eigenvalue) as a matrix-free Operator: a row permutation of
// the Kronecker product of per-factor eigenvector matrices.
func (fe *FactoredEigen) VectorsOperator() Operator {
	parts := make([]Operator, len(fe.Factors))
	for i, f := range fe.Factors {
		parts[i] = f.Vectors
	}
	return PermuteRows(NewKronOp(parts...), fe.perm)
}

// eigenVectors returns the factors' eigenvector matrices.
func eigenVectors(factors []*EigenSym) []*Matrix {
	out := make([]*Matrix, len(factors))
	for i, f := range factors {
		out[i] = f.Vectors
	}
	return out
}

// kronRowInto writes the Kronecker product of row idx[i] of each factor
// into dst: row Σ idx[i]·Π_{j>i} rows(j) of their Kronecker product.
func kronRowInto(dst []float64, factors []*Matrix, idx []int) {
	dst[0] = 1
	length := 1
	for fi, f := range factors {
		vec := f.Row(idx[fi])
		fl := len(vec)
		// Expand dst[:length] by vec.
		for i := length - 1; i >= 0; i-- {
			base := dst[i]
			for j := fl - 1; j >= 0; j-- {
				dst[i*fl+j] = base * vec[j]
			}
		}
		length *= fl
	}
}
