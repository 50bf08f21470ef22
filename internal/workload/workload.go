// Package workload constructs the query workloads evaluated in the paper:
// all-range and random range queries, k-way marginals and range marginals,
// CDF (prefix) workloads, random predicate queries, and the running example
// of Fig. 1, together with transformations (column permutation, row
// normalization for relative error, unions).
//
// A Workload wraps a set of m linear counting queries over n cells,
// represented by a linalg.Operator rather than an explicit matrix.
// Structured builders return structured operators — AllRange is a
// Kronecker product of per-dimension interval operators, Prefix is the
// analytic prefix-sum operator, Marginals stack Kronecker products of
// identities and total rows — so even workloads whose explicit matrix
// would have billions of entries (all range queries on 2048 cells have
// ~2.1M rows) can be *answered* on data with O(rows) work per release.
// Dense rows are materialized lazily, and only for workloads small enough
// to fit under maxExplicitEntries; error analysis needs just the Gram
// matrix WᵀW and the row count m (Prop. 4), which every representation
// provides analytically.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
)

// Workload is a set of linear counting queries over a cell domain.
type Workload struct {
	name  string
	shape domain.Shape
	m     int             // number of queries
	op    linalg.Operator // the query operator; nil only for gram-only workloads
	mat   *linalg.Matrix  // dense rows, materialized lazily under the cap
	gram  *linalg.Matrix  // cached WᵀW
	// gramFactors, when non-nil, are per-dimension matrices whose Kronecker
	// product equals the Gram matrix — set by product-form builders like
	// AllRange so the eigendecomposition can be composed per dimension.
	gramFactors []*linalg.Matrix
	// marginalSubsets, when non-nil, are the attribute subsets of a
	// workload that is a union of plain marginals — set by the marginal
	// builders so the planner's closed-form marginal designer can admit
	// the workload without inspecting rows.
	marginalSubsets [][]int
}

// maxExplicitEntries caps how many matrix entries (rows × cells) Matrix()
// will materialize from a structured operator. It is no longer a limit on
// what can be answered — answering goes through the operator — only on
// what can be handed out as a dense matrix. The budget is shared with the
// strategy side (mm.StrategyDense) through linalg.MaterializeCap.
const maxExplicitEntries = linalg.MaterializeCap

// FromMatrix wraps an explicit query matrix as a workload. The number of
// columns must match the shape's cell count.
func FromMatrix(name string, shape domain.Shape, m *linalg.Matrix) *Workload {
	if m.Cols() != shape.Size() {
		panic(fmt.Sprintf("workload: matrix has %d cols for shape %v (%d cells)", m.Cols(), shape, shape.Size()))
	}
	return &Workload{name: name, shape: shape, m: m.Rows(), op: m, mat: m}
}

// FromOperator wraps a structured query operator as a workload.
func FromOperator(name string, shape domain.Shape, op linalg.Operator) *Workload {
	if op.Cols() != shape.Size() {
		panic(fmt.Sprintf("workload: operator has %d cols for shape %v (%d cells)", op.Cols(), shape, shape.Size()))
	}
	w := &Workload{name: name, shape: shape, m: op.Rows(), op: op}
	if m, ok := op.(*linalg.Matrix); ok {
		w.mat = m
	}
	return w
}

// fromGram wraps an implicit workload known only through its Gram matrix;
// it can be analyzed but not answered (see AllPredicate).
func fromGram(name string, shape domain.Shape, m int, gram *linalg.Matrix) *Workload {
	if gram.Rows() != shape.Size() || gram.Cols() != shape.Size() {
		panic(fmt.Sprintf("workload: gram is %dx%d for %d cells", gram.Rows(), gram.Cols(), shape.Size()))
	}
	return &Workload{name: name, shape: shape, m: m, gram: gram}
}

// Name returns a human-readable workload label.
func (w *Workload) Name() string { return w.name }

// Shape returns the cell domain shape.
func (w *Workload) Shape() domain.Shape { return w.shape }

// Cells returns the number of cells n.
func (w *Workload) Cells() int { return w.shape.Size() }

// NumQueries returns the number of queries m.
func (w *Workload) NumQueries() int { return w.m }

// Answerable reports whether the workload queries can be evaluated on data
// (an operator is available). Only gram-only workloads are not answerable.
func (w *Workload) Answerable() bool { return w.op != nil }

// Op returns the workload's query operator, or nil for gram-only
// workloads.
func (w *Workload) Op() linalg.Operator { return w.op }

// Explicit reports whether dense query rows are available: already
// materialized, or materializable from the operator under the
// maxExplicitEntries cap.
func (w *Workload) Explicit() bool {
	if w.mat != nil {
		return true
	}
	return w.op != nil && w.withinExplicitCap()
}

func (w *Workload) withinExplicitCap() bool {
	n := w.Cells()
	if n == 0 {
		return true
	}
	return w.m <= maxExplicitEntries/n
}

// Matrix returns the explicit m x n query matrix, materializing it from
// the operator on first use when the workload is small enough. It panics
// for workloads past the cap (use Op / MulQueries) and for gram-only
// workloads; check Explicit first.
func (w *Workload) Matrix() *linalg.Matrix {
	if w.mat != nil {
		return w.mat
	}
	if w.op == nil {
		panic(fmt.Sprintf("workload: %q is gram-only (m=%d); it can be analyzed but not materialized", w.name, w.m))
	}
	if !w.withinExplicitCap() {
		panic(fmt.Sprintf("workload: %q is too large to materialize (%d x %d entries); use Op()/MulQueries", w.name, w.m, w.Cells()))
	}
	w.mat = linalg.ToDense(w.op)
	return w.mat
}

// MulQueries evaluates every workload query on the histogram x through the
// operator — the matrix-free path the mechanism uses to answer large
// structured workloads. It panics for gram-only workloads.
func (w *Workload) MulQueries(x []float64) []float64 {
	if w.op == nil {
		panic(fmt.Sprintf("workload: %q is gram-only and cannot be answered on data", w.name))
	}
	return linalg.MulVec(w.op, x)
}

// MulQueriesInto is MulQueries writing into a caller-owned buffer of
// length NumQueries — the release hot path's spelling. It returns dst.
func (w *Workload) MulQueriesInto(dst, x []float64) []float64 {
	if w.op == nil {
		panic(fmt.Sprintf("workload: %q is gram-only and cannot be answered on data", w.name))
	}
	return linalg.MulVecInto(w.op, dst, x)
}

// MulQueriesRangeInto answers query rows [lo,hi) into dst[:hi-lo] — the
// chunked spelling of MulQueriesInto used by streaming releases. The
// values are bit-identical to the matching window of the full product, so
// a streamed release reassembles exactly the buffered answer vector.
func (w *Workload) MulQueriesRangeInto(dst, x []float64, lo, hi int) []float64 {
	if w.op == nil {
		panic(fmt.Sprintf("workload: %q is gram-only and cannot be answered on data", w.name))
	}
	return linalg.MulVecRangeInto(w.op, dst, x, lo, hi)
}

// Gram returns WᵀW, computing and caching it on first use: from the
// Kronecker gram factors when the workload has product form, from the
// operator's analytic Gram when it has one, or from the dense rows.
func (w *Workload) Gram() *linalg.Matrix {
	if w.gram != nil {
		return w.gram
	}
	switch {
	case w.gramFactors != nil:
		w.gram = linalg.KroneckerAll(w.gramFactors...)
	case w.mat != nil:
		w.gram = w.mat.GramParallel()
	case w.op != nil:
		w.gram = linalg.OperatorGram(w.op)
	default:
		panic(fmt.Sprintf("workload: %q has no representation to compute a Gram matrix from", w.name))
	}
	return w.gram
}

// GramFactors returns per-dimension factors whose Kronecker product is the
// Gram matrix, when the workload has product form (e.g. multi-dimensional
// all-range). The second result reports availability.
func (w *Workload) GramFactors() ([]*linalg.Matrix, bool) {
	return w.gramFactors, w.gramFactors != nil
}

// MarginalSubsets returns the attribute subsets when the workload is a
// union of plain marginals (built by Marginals, MarginalSet, AllMarginals
// or RandomMarginals) and ok = false otherwise. Workload transformations
// (unions, permutations, scaling) drop the metadata, since the result is
// no longer a plain marginal set. Callers must not mutate the subsets.
func (w *Workload) MarginalSubsets() ([][]int, bool) {
	if w.marginalSubsets == nil {
		return nil, false
	}
	return w.marginalSubsets, true
}

// SensitivityL2 returns the L2 sensitivity ‖W‖₂ (Prop. 1): the maximum L2
// column norm, from the operator's analytic column norms when available
// and the diagonal of the Gram matrix otherwise.
func (w *Workload) SensitivityL2() float64 {
	if w.op != nil && w.gram == nil {
		if _, ok := w.op.(linalg.ColNorms2er); ok {
			return linalg.MaxColNorm2Op(w.op)
		}
	}
	g := w.Gram()
	var best float64
	for i := 0; i < g.Rows(); i++ {
		if v := g.At(i, i); v > best {
			best = v
		}
	}
	if best < 0 {
		best = 0
	}
	return sqrt(best)
}

// PermuteCells returns the workload with its cell conditions reordered by
// perm (new cell j is old cell perm[j]) — a semantically-equivalent
// workload in the sense of Prop. 5.
func (w *Workload) PermuteCells(perm []int, name string) *Workload {
	if len(perm) != w.Cells() {
		panic(fmt.Sprintf("workload: perm length %d for %d cells", len(perm), w.Cells()))
	}
	out := &Workload{name: name, shape: domain.MustShape(w.Cells()), m: w.m}
	if w.Explicit() {
		out.mat = w.Matrix().PermuteCols(perm)
		out.op = out.mat
		return out
	}
	// Permute the Gram matrix: G'_{ij} = G_{perm[i],perm[j]}.
	g := w.Gram()
	n := w.Cells()
	pg := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pg.Set(i, j, g.At(perm[i], perm[j]))
		}
	}
	out.gram = pg
	return out
}

// NormalizeRows returns a copy with every query scaled to unit L2 norm,
// the heuristic of Sec 3.4 used to optimize toward relative error.
// Zero rows are left untouched. Only explicit workloads can be normalized.
func (w *Workload) NormalizeRows() *Workload {
	m := w.Matrix().Clone()
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s == 0 {
			continue
		}
		inv := 1 / sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
	return FromMatrix(w.name+" (row-normalized)", w.shape, m)
}

// Union stacks several answerable workloads over the same shape into one,
// as when combining the queries of multiple users (Sec 1). Structured
// operands stay structured (the union operator stacks them). A union of
// plain marginal sets is itself a marginal set, so the subset metadata is
// preserved and the planner's closed-form marginal designer still
// applies.
func Union(name string, ws ...*Workload) *Workload {
	if len(ws) == 0 {
		panic("workload: empty union")
	}
	shape := ws[0].shape
	allDense := true
	allMarginal := true
	var subsets [][]int
	ops := make([]linalg.Operator, len(ws))
	for i, w := range ws {
		if !w.shape.Equal(shape) && w.Cells() != shape.Size() {
			panic(fmt.Sprintf("workload: union shape mismatch %v vs %v", w.shape, shape))
		}
		if !w.Answerable() {
			panic(fmt.Sprintf("workload: union operand %q is gram-only", w.name))
		}
		ops[i] = w.op
		if _, ok := w.op.(*linalg.Matrix); !ok {
			allDense = false
		}
		// The subsets are only meaningful relative to the union's shape:
		// Union admits operands whose shape differs but cell count
		// matches, and a marginal over a reshaped domain is not a
		// marginal of this one.
		if w.marginalSubsets == nil || !w.shape.Equal(shape) {
			allMarginal = false
		} else {
			subsets = append(subsets, w.marginalSubsets...)
		}
	}
	var u *Workload
	if allDense {
		mats := make([]*linalg.Matrix, len(ws))
		for i, w := range ws {
			mats[i] = w.Matrix()
		}
		u = FromMatrix(name, shape, linalg.StackRows(mats...))
	} else {
		u = FromOperator(name, shape, linalg.StackOps(ops...))
	}
	if allMarginal {
		u.marginalSubsets = subsets
	}
	return u
}

// Scale returns the workload with all queries multiplied by s.
func (w *Workload) Scale(s float64) *Workload {
	if w.mat != nil {
		return FromMatrix(w.name, w.shape, w.mat.Scale(s))
	}
	if w.op != nil {
		out := FromOperator(w.name, w.shape, linalg.ScaleOp(w.op, s))
		if w.gramFactors != nil {
			// Fold s² into the first factor to keep the product form.
			out.gramFactors = append([]*linalg.Matrix(nil), w.gramFactors...)
			out.gramFactors[0] = out.gramFactors[0].Scale(s * s)
		}
		return out
	}
	return fromGram(w.name, w.shape, w.m, w.Gram().Scale(s*s))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Identity returns the identity workload (every base cell count).
func Identity(shape domain.Shape) *Workload {
	return FromMatrix("identity "+shape.String(), shape, linalg.Identity(shape.Size()))
}

// randPerm draws a permutation using the supplied source, so experiments
// are reproducible.
func randPerm(r *rand.Rand, n int) []int { return r.Perm(n) }
