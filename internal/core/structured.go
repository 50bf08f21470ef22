package core

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// This file implements the factored (matrix-free) branch of the
// Eigen-Design pipeline, selected explicitly via Options.Pipeline (the
// cost-based planner owns the rule for when large product-form workloads
// should take it). When a workload has product form — its Gram matrix is
// a Kronecker product of per-dimension factors, as for multi-dimensional
// all-range — the eigendecomposition is composed from per-dimension
// decompositions (O(Σdᵢ³) instead of O(n³)) and, crucially,
// never materialized: design queries are streamed one row at a time into
// the weighting program, and the resulting strategy is returned as a
// linalg.Operator
//
//	A = [ diag(λ) · P · (V₁ ⊗ … ⊗ V_k) ;  D ]
//
// (weighted, eigenvalue-sorted Kronecker eigenbasis plus sparse completion
// rows D), whose matvecs cost O(n·Σdᵢ). linalg.NewSolver recognizes this
// form: a principal-vectors design, whose weights differ from one shared
// tail weight on k rows, gets the exact Woodbury solver; the exact and
// separation designs weight nearly every row apart, so past the solver's
// row cap they infer by CGLS. This converts the old dense
// O(n²)-memory/O(n³)-time ceiling on Design into a per-dimension cost.

// FactoredEligible reports whether the factored pipeline can run on w:
// product (Kronecker) form with at least two Gram factors. The planner
// uses it as an admission predicate; whether a given domain size *should*
// go factored is the planner's call, not core's.
func FactoredEligible(w *workload.Workload) bool {
	factors, ok := w.GramFactors()
	return ok && len(factors) >= 2
}

// factoredEigen returns the factored eigendecomposition of the workload's
// Gram matrix for an explicitly requested PipelineFactored run. It errors
// when the pipeline does not apply: the factored branch needs product
// form with at least two factors, the L2 weighting, and the eigen design
// set (no custom basis).
func factoredEigen(w *workload.Workload, o Options) (*linalg.FactoredEigen, error) {
	if o.L1 {
		return nil, errors.New("core: the factored pipeline supports only the L2 weighting")
	}
	if o.DesignBasis != nil {
		return nil, errors.New("core: the factored pipeline uses the eigen design set; custom bases are dense-only")
	}
	factors, ok := w.GramFactors()
	if !ok || len(factors) < 2 {
		return nil, fmt.Errorf("core: workload %q has no product (Kronecker) Gram form; the factored pipeline needs per-dimension factors", w.Name())
	}
	parts := make([]*linalg.EigenSym, len(factors))
	for i, f := range factors {
		eg, err := linalg.SymEigen(f)
		if err != nil {
			return nil, err
		}
		parts[i] = eg
	}
	return linalg.KronEigenFactored(parts...), nil
}

// designFactored is the exact Program 2 on a factored eigenbasis: every
// eigen-query gets its own weight. The constraint matrix is still n×n
// (streamed row by row), so this remains the most expensive design; the
// payoff is the strategy operator, which skips the dense assembly and the
// O(n³) pseudo-inverse entirely.
func designFactored(fe *linalg.FactoredEigen, o Options) (*Result, error) {
	sigma := clampNonNegative(fe.Values)
	n := fe.N()
	b := linalg.New(n, n)
	for r := 0; r < n; r++ {
		row := fe.Row(r)
		dst := b.Row(r)
		for j, v := range row {
			dst[j] = v * v
		}
	}
	u, err := solveWeightingPrepared(b, sigma, o)
	if err != nil {
		return nil, err
	}
	cn2 := linalg.MulVecT(b, u)
	res, err := assembleFactored(fe, sqrtAll(u), cn2, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

// separationFactored runs eigen-query separation (Sec 4.2) on a factored
// eigenbasis: groups of eigen rows are materialized transiently (g×n at a
// time), weighted independently, then rescaled by the per-group program.
func separationFactored(fe *linalg.FactoredEigen, groupSize int, o Options) (*Result, error) {
	sigma := clampNonNegative(fe.Values)
	n := fe.N()
	// Eigenvalues are sorted descending, so the rank cutoff keeps a prefix.
	kept := len(keptIndices(sigma))
	if kept == 0 {
		return nil, errors.New("core: workload has no information (all eigenvalues zero)")
	}

	u := make([]float64, n)
	type group struct{ lo, hi int } // [lo, hi)
	var groups []group
	for at := 0; at < kept; at += groupSize {
		end := at + groupSize
		if end > kept {
			end = kept
		}
		groups = append(groups, group{at, end})
	}

	// Phase 1 per group; accumulate the aggregated squared rows for phase 2.
	bRows := linalg.New(len(groups), n)
	cGroups := make([]float64, len(groups))
	for gi, g := range groups {
		qg := linalg.New(g.hi-g.lo, n)
		for r := g.lo; r < g.hi; r++ {
			copy(qg.Row(r-g.lo), fe.Row(r))
		}
		ug, err := solveWeighting(qg, sigma[g.lo:g.hi], o)
		if err != nil {
			return nil, err
		}
		row := bRows.Row(gi)
		var cost float64
		for r := g.lo; r < g.hi; r++ {
			ui := ug[r-g.lo]
			u[r] = ui
			qr := qg.Row(r - g.lo)
			for j, qv := range qr {
				row[j] += qv * qv * ui
			}
			if ui > 0 {
				cost += sigma[r] / ui
			}
		}
		cGroups[gi] = cost
	}

	// Phase 2: one scale factor per group — the same program shape.
	v, err := solveWeightingPrepared(bRows, cGroups, o)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		for r := g.lo; r < g.hi; r++ {
			u[r] *= v[gi]
		}
	}
	cn2 := linalg.MulVecT(bRows, v)
	res, err := assembleFactored(fe, sqrtAll(u), cn2, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

// principalFactored runs the principal-vector optimization (Sec 4.2) on a
// factored eigenbasis: only the k leading eigen-queries are materialized
// (O(k·n) transient memory); every remaining eigen-query shares one weight.
// Because the full eigenbasis is orthonormal, the shared tail's squared
// column profile is 1 − Σ_principal qᵢⱼ² analytically — no tail row is ever
// formed. This is the design that scales: k+1 variables regardless of n.
func principalFactored(fe *linalg.FactoredEigen, k int, o Options) (*Result, error) {
	sigma := clampNonNegative(fe.Values)
	n := fe.N()
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return nil, fmt.Errorf("core: principal vector count %d < 1", k)
	}
	b := linalg.New(k+1, n)
	c := make([]float64, k+1)
	tail := b.Row(k)
	for j := range tail {
		tail[j] = 1
	}
	for r := 0; r < k; r++ {
		row := fe.Row(r)
		dst := b.Row(r)
		for j, v := range row {
			sq := v * v
			dst[j] = sq
			tail[j] -= sq
		}
		c[r] = sigma[r]
	}
	for j, v := range tail {
		if v < 0 { // orthonormality round-off
			tail[j] = 0
		}
	}
	var tailCost float64
	for _, s := range sigma[k:] {
		tailCost += s
	}
	c[k] = tailCost

	u, err := solveWeightingPrepared(b, c, o)
	if err != nil {
		return nil, err
	}
	scales := make([]float64, n)
	for r := 0; r < k; r++ {
		scales[r] = sqrtNonNegative(u[r])
	}
	tailScale := sqrtNonNegative(u[k])
	for r := k; r < n; r++ {
		scales[r] = tailScale
	}
	cn2 := linalg.MulVecT(b, u)
	res, err := assembleFactored(fe, scales, cn2, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

// assembleFactored builds the strategy operator from the factored
// eigenbasis and solved row scales: steps 3–5 of Program 2 in matrix-free
// form. cn2 must hold the squared column norms of the scaled strategy
// (available as Bᵀu from every weighting program).
func assembleFactored(fe *linalg.FactoredEigen, scales, cn2 []float64, o Options) (*Result, error) {
	rank := 0
	for _, s := range scales {
		if s > 0 {
			rank++
		}
	}
	if rank == 0 {
		return nil, errors.New("core: weighting produced an all-zero strategy")
	}
	n := fe.N()
	var op linalg.Operator = linalg.ScaleRows(fe.VectorsOperator(), scales)
	colNorms := append([]float64(nil), cn2...)
	if !o.SkipCompletion {
		var maxN float64
		for _, v := range colNorms {
			if v > maxN {
				maxN = v
			}
		}
		var idx []int
		var vals []float64
		for j, v := range colNorms {
			gap := maxN - v
			if gap <= 1e-12*maxN {
				continue
			}
			idx = append(idx, j)
			vals = append(vals, math.Sqrt(gap))
			colNorms[j] = maxN
		}
		if len(idx) > 0 {
			op = linalg.StackOps(op, linalg.SparseDiag(n, idx, vals))
		}
	}
	// L1 column norms have no analytic form here (the factored pipeline is
	// L2-gated); a Laplace release on a factored strategy would probe all
	// n basis vectors on first use — correct but O(n²·Σdᵢ).
	op = linalg.WithColNorms(op, colNorms, nil)
	return &Result{Op: op, Weights: scales, Rank: rank}, nil
}

func sqrtAll(u []float64) []float64 {
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = sqrtNonNegative(v)
	}
	return out
}

func sqrtNonNegative(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
