// Package core implements the paper's primary contribution: the
// Eigen-Design algorithm (Program 2) that adapts the matrix mechanism's
// strategy to a given workload, together with the Sec 4 performance
// optimizations (eigen-query separation and principal-vector optimization),
// alternative design bases, and the ε-differential-privacy (L1) variant of
// the weighting program (Sec 3.5).
package core

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/opt"
	"adaptivemm/internal/workload"
)

// Solver selects the optimizer used for the query weighting program.
type Solver int

const (
	// SolverAuto uses the interior-point solver up to
	// firstOrderThreshold weighting variables and the first-order solver
	// beyond that.
	SolverAuto Solver = iota
	// SolverBarrier forces the log-barrier Newton interior-point method.
	SolverBarrier
	// SolverFirstOrder forces the scalable first-order method.
	SolverFirstOrder
)

const (
	// firstOrderThreshold is the weighting-variable count above which
	// SolverAuto switches to the first-order solver.
	firstOrderThreshold = 384
	// rankTol is the relative eigenvalue cutoff below which design
	// queries are dropped (Sec 4.1).
	rankTol = 1e-10
)

// UsesFirstOrder reports whether a weighting program over vars variables
// runs the first-order solver (true) or the barrier solver (false) under
// solver choice s. It is the one solver rule: every weighting program in
// this package and the planner's plan notes follow it.
func UsesFirstOrder(s Solver, vars int) bool {
	return s == SolverFirstOrder || (s == SolverAuto && vars > firstOrderThreshold)
}

// solveProgram runs the weighting program with the solver UsesFirstOrder
// picks for its variable count.
func solveProgram(prog *opt.Program, s Solver) ([]float64, error) {
	if UsesFirstOrder(s, len(prog.C)) {
		return opt.SolveFirstOrder(prog, opt.FirstOrderOptions{})
	}
	return opt.SolveBarrier(prog)
}

// Pipeline selects the representation the design pipeline works in. Core
// no longer decides this on its own: the cost-based planner
// (internal/planner) owns the admission rule that sends large product-form
// workloads down the factored pipeline, and requests it explicitly here.
type Pipeline int

const (
	// PipelineDense is the dense pipeline: explicit design queries, an
	// explicit strategy matrix (Result.Strategy set), O(n³) algebra.
	PipelineDense Pipeline = iota
	// PipelineFactored keeps the eigen-structure of a product (Kronecker)
	// form workload factored per dimension and returns the strategy as a
	// matrix-free operator (Result.Strategy nil, use Result.Op). It
	// requires product form with at least two Gram factors, the L2
	// weighting, and no custom design basis; Design returns an error
	// otherwise (see FactoredEligible).
	PipelineFactored
)

// Options configures the Eigen-Design algorithm. The zero value gives the
// paper's default behaviour: eigen-query design set, L2/(ε,δ) weighting,
// column completion enabled, automatic solver choice, dense pipeline.
type Options struct {
	// Solver picks the weighting optimizer.
	Solver Solver
	// L1 switches to the ε-differential-privacy variant of Sec 3.5: the
	// weighting program constrains L1 column norms (Power 2).
	L1 bool
	// DesignBasis overrides the design queries (rows). When nil the
	// eigen-queries of the workload are used (Def. 6). Used by the Fig. 5
	// experiment to compare wavelet and Fourier design sets.
	DesignBasis *linalg.Matrix
	// SkipCompletion disables steps 4–5 of Program 2 (an ablation; the
	// completed strategy is never worse).
	SkipCompletion bool
	// Pipeline selects the dense or factored (matrix-free) pipeline.
	Pipeline Pipeline
}

// Result is the output of the Eigen-Design algorithm.
type Result struct {
	// Op is the strategy as a linear operator — always set. For the dense
	// pipeline it is the Strategy matrix itself; for structured (factored
	// Kronecker) designs it is a matrix-free composition of the
	// per-dimension eigenvector matrices, the solved weights, and the
	// completion rows.
	Op linalg.Operator
	// Strategy is the full strategy matrix A (weighted design queries plus
	// completion rows). It is nil for structured designs, which are too
	// large to materialize — use Op.
	Strategy *linalg.Matrix
	// Weights holds the solved weight λᵢ of each design query.
	Weights []float64
	// Design holds the design queries used (rows); nil for structured
	// designs (the design set is the factored eigenbasis).
	Design *linalg.Matrix
	// Eigenvalues are the eigenvalues of WᵀW in descending order (clamped
	// at zero); nil when a custom design basis was supplied.
	Eigenvalues []float64
	// Rank is the number of design queries kept after the rank cutoff.
	Rank int
}

// Design runs the Eigen-Design algorithm (Program 2) on the workload and
// returns the adapted strategy.
func Design(w *workload.Workload, o Options) (*Result, error) {
	if o.DesignBasis != nil {
		if o.Pipeline == PipelineFactored {
			return nil, errors.New("core: custom design bases run the dense pipeline only")
		}
		return designWithBasis(w, o.DesignBasis, o)
	}
	if o.Pipeline == PipelineFactored {
		fe, err := factoredEigen(w, o)
		if err != nil {
			return nil, err
		}
		return designFactored(fe, o)
	}

	// Step 1: eigendecomposition of WᵀW; design queries are eigen-queries.
	eg, err := gramEigen(w)
	if err != nil {
		return nil, err
	}
	sigma := clampNonNegative(eg.Values)

	// Step 2: optimal query weighting with cᵢ = σᵢ.
	u, err := solveWeighting(eg.Vectors, sigma, o)
	if err != nil {
		return nil, err
	}

	res, err := assemble(eg.Vectors, u, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

// designWithBasis runs the weighting program over an arbitrary design set
// Q: the costs are the squared column norms of WQ⁺ (Theorem 1), computed
// from the workload's Gram matrix so implicit workloads work too.
func designWithBasis(w *workload.Workload, q *linalg.Matrix, o Options) (*Result, error) {
	if q.Cols() != w.Cells() {
		return nil, fmt.Errorf("core: design basis has %d columns for %d cells", q.Cols(), w.Cells())
	}
	qpinv, err := linalg.PseudoInverse(q)
	if err != nil {
		return nil, err
	}
	// cᵢ = ‖(WQ⁺) column i‖² = (Q⁺ᵀ (WᵀW) Q⁺)_{ii}.
	gq := w.Gram().MulParallel(qpinv)
	c := make([]float64, q.Rows())
	for i := range c {
		var s float64
		for row := 0; row < qpinv.Rows(); row++ {
			s += qpinv.At(row, i) * gq.At(row, i)
		}
		c[i] = math.Max(s, 0)
	}
	u, err := solveWeighting(q, c, o)
	if err != nil {
		return nil, err
	}
	return assemble(q, u, o)
}

// solveWeighting solves the weighting program for design matrix q and
// costs c, returning the solved variables u (u = λ² for L2, u = λ for L1).
func solveWeighting(q *linalg.Matrix, c []float64, o Options) ([]float64, error) {
	return solveWeightingPrepared(constraintMatrix(q, o.L1), c, o)
}

// solveWeightingPrepared is solveWeighting for callers that build the
// constraint matrix themselves (the factored pipeline, which squares
// eigen rows as it streams them).
func solveWeightingPrepared(b *linalg.Matrix, c []float64, o Options) ([]float64, error) {
	prog := &opt.Program{C: c, B: b, Power: powerFor(o.L1)}
	// Apply the rank cutoff relative to the largest cost.
	var maxC float64
	for _, v := range c {
		if v > maxC {
			maxC = v
		}
	}
	if maxC == 0 {
		return nil, errors.New("core: workload has no information (all costs zero)")
	}
	cut := make([]float64, len(c))
	for i, v := range c {
		if v > rankTol*maxC {
			cut[i] = v
		}
	}
	prog.C = cut
	return solveProgram(prog, o.Solver)
}

// assemble builds the strategy matrix from the design set and solved
// variables: steps 3–5 of Program 2.
func assemble(q *linalg.Matrix, u []float64, o Options) (*Result, error) {
	lambda := make([]float64, len(u))
	rank := 0
	for i, v := range u {
		if v <= 0 {
			continue
		}
		rank++
		if o.L1 {
			lambda[i] = v
		} else {
			lambda[i] = math.Sqrt(v)
		}
	}
	if rank == 0 {
		return nil, errors.New("core: weighting produced an all-zero strategy")
	}
	// Step 3: A' = ΛQ keeping rows with positive weight.
	aPrime := linalg.New(rank, q.Cols())
	r := 0
	for i, l := range lambda {
		if l <= 0 {
			continue
		}
		src := q.Row(i)
		dst := aPrime.Row(r)
		for j, v := range src {
			dst[j] = l * v
		}
		r++
	}
	a := aPrime
	if !o.SkipCompletion {
		a = complete(aPrime, o.L1)
	}
	return &Result{Op: a, Strategy: a, Weights: lambda, Design: q, Rank: rank}, nil
}

// complete implements steps 4–5 of Program 2: append diagonal rows raising
// every column to the maximum column norm, adding information at no
// sensitivity cost. Under L1 the completion uses L1 column norms.
func complete(aPrime *linalg.Matrix, l1 bool) *linalg.Matrix {
	var norms []float64
	if l1 {
		norms = aPrime.ColNormsL1()
	} else {
		norms = aPrime.ColNorms2()
	}
	var maxN float64
	for _, v := range norms {
		if v > maxN {
			maxN = v
		}
	}
	diag := make([]float64, len(norms))
	nonzero := 0
	for j, v := range norms {
		gap := maxN - v
		if gap <= 1e-12*maxN {
			continue
		}
		if l1 {
			diag[j] = gap
		} else {
			diag[j] = math.Sqrt(gap)
		}
		nonzero++
	}
	if nonzero == 0 {
		return aPrime
	}
	d := linalg.New(nonzero, len(norms))
	r := 0
	for j, v := range diag {
		if v > 0 {
			d.Set(r, j, v)
			r++
		}
	}
	return linalg.StackRows(aPrime, d)
}

// constraintMatrix returns B: entrywise square of q for the L2 program,
// entrywise absolute value for the L1 variant.
func constraintMatrix(q *linalg.Matrix, l1 bool) *linalg.Matrix {
	b := linalg.New(q.Rows(), q.Cols())
	for i := 0; i < q.Rows(); i++ {
		src := q.Row(i)
		dst := b.Row(i)
		for j, v := range src {
			if l1 {
				dst[j] = math.Abs(v)
			} else {
				dst[j] = v * v
			}
		}
	}
	return b
}

func powerFor(l1 bool) int {
	if l1 {
		return 2
	}
	return 1
}

// gramEigen returns the eigendecomposition of the workload's Gram matrix,
// composing per-dimension decompositions when the workload has product
// (Kronecker) form — an O(Σdᵢ³) shortcut past the O(n³) dense solve.
func gramEigen(w *workload.Workload) (*linalg.EigenSym, error) {
	factors, ok := w.GramFactors()
	if !ok || len(factors) < 2 {
		return linalg.SymEigen(w.Gram())
	}
	parts := make([]*linalg.EigenSym, len(factors))
	for i, f := range factors {
		eg, err := linalg.SymEigen(f)
		if err != nil {
			return nil, err
		}
		parts[i] = eg
	}
	return linalg.KronEigen(parts...), nil
}

func clampNonNegative(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x > 0 {
			out[i] = x
		}
	}
	return out
}

// ApproxRatioBound returns Theorem 3's bound (n·σ₁/svdb)^{1/4} on the
// approximation ratio of Program 2, from the eigenvalues of WᵀW.
func ApproxRatioBound(eigenvalues []float64) float64 {
	if len(eigenvalues) == 0 {
		return math.NaN()
	}
	var sqsum, sigma1 float64
	for _, v := range eigenvalues {
		if v > 0 {
			sqsum += math.Sqrt(v)
		}
		if v > sigma1 {
			sigma1 = v
		}
	}
	n := float64(len(eigenvalues))
	svdb := sqsum * sqsum / n
	if svdb == 0 {
		return math.NaN()
	}
	return math.Pow(n*sigma1/svdb, 0.25)
}
