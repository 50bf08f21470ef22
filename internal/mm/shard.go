package mm

import (
	"fmt"
	"sort"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// Sharded (composite) mechanisms: one mechanism built from several
// independently designed per-shard mechanisms. The composite strategy is
// the block-diagonal stack of the shard strategies composed with the
// shard projections,
//
//	A = blockdiag(A₁, …, Aₖ) · stack(P₁, …, Pₖ),
//
// an operator on the ORIGINAL histogram, so noise is calibrated to the
// true end-to-end sensitivity: one changed cell moves through every
// projection, and the composite's squared column norm is the sum of the
// shard strategies' squared column norms at the projected cells. For
// cell-partition shards the projections are disjoint selections and the
// composite sensitivity reduces to the max over shards; for marginal
// blocks every shard sees every cell and the sums are real.
//
// Inference is one block-diagonal solve: the measurements of shard i are
// solved by shard i's own solver (see linalg.BlockSolver), and the
// estimate is the concatenation of the per-shard sub-domain estimates.
// Workload answers are the per-shard sub-workload answers scattered back
// into the original row order, one row segment at a time.

// RowSegment locates a contiguous run of a shard's answers inside the
// original workload's row order (mirrors workload.RowSegment).
type RowSegment struct {
	Start int
	Len   int
}

// Shard is one component of a sharded mechanism.
type Shard struct {
	// Mechanism is the shard's prepared mechanism over its sub-domain.
	Mechanism *Mechanism
	// Project maps the original histogram onto the shard's sub-domain. It
	// must be a 0/1 operator with at most one nonzero per column (a
	// marginalization or a cell selection); NewShardedMechanism verifies
	// this and refuses anything else.
	Project linalg.Operator
	// Workload is the shard's sub-workload, answered on the shard's
	// private sub-histogram estimate.
	Workload *workload.Workload
	// Segments places the shard's answers in the original workload's row
	// order; lengths must sum to Workload.NumQueries().
	Segments []RowSegment
}

// NewShardedMechanism composes per-shard mechanisms into one mechanism
// whose releases are differentially private end to end: a single noise
// scale calibrated to the composite sensitivity covers every shard's
// measurements. Its solver is a linalg.BlockSolver over the shards' own
// solvers, so nothing is prepared twice. planned is the original
// workload the composite answers; sharded mechanisms can answer no
// other. At least two shards are required, none of them itself sharded.
func NewShardedMechanism(planned *workload.Workload, shards []Shard) (*Mechanism, error) {
	if planned == nil {
		return nil, fmt.Errorf("mm: sharded mechanism needs the workload it is planned for")
	}
	if len(shards) < 2 {
		return nil, fmt.Errorf("mm: sharded mechanism needs ≥2 shards, got %d", len(shards))
	}
	n := shards[0].Project.Cols()
	strategies := make([]linalg.Operator, len(shards))
	solvers := make([]linalg.LSSolver, len(shards))
	projections := make([]linalg.Operator, len(shards))
	cn2 := make([]float64, n)
	cn1 := make([]float64, n)
	var scatter []scatterSeg
	estAt := 0
	for i, s := range shards {
		if s.Mechanism == nil || s.Project == nil || s.Workload == nil {
			return nil, fmt.Errorf("mm: shard %d is missing a mechanism, projection or workload", i)
		}
		if s.Mechanism.shards != nil {
			return nil, fmt.Errorf("mm: shard %d is itself sharded", i)
		}
		if s.Project.Cols() != n {
			return nil, fmt.Errorf("mm: shard %d projection has %d input cells, shard 0 has %d", i, s.Project.Cols(), n)
		}
		a := s.Mechanism.Strategy()
		if s.Project.Rows() != a.Cols() {
			return nil, fmt.Errorf("mm: shard %d projection produces %d cells, strategy expects %d", i, s.Project.Rows(), a.Cols())
		}
		if s.Workload.Cells() != a.Cols() {
			return nil, fmt.Errorf("mm: shard %d sub-workload has %d cells, strategy expects %d", i, s.Workload.Cells(), a.Cols())
		}
		segLen := 0
		for _, seg := range s.Segments {
			if seg.Start < 0 || seg.Len <= 0 {
				return nil, fmt.Errorf("mm: shard %d has an invalid row segment %+v", i, seg)
			}
			scatter = append(scatter, scatterSeg{start: seg.Start, n: seg.Len, wOff: segLen,
				estOff: estAt, cells: a.Cols(), w: s.Workload})
			segLen += seg.Len
		}
		if segLen != s.Workload.NumQueries() {
			return nil, fmt.Errorf("mm: shard %d segments cover %d rows, sub-workload has %d queries", i, segLen, s.Workload.NumQueries())
		}
		strategies[i] = a
		solvers[i] = s.Mechanism.solver
		projections[i] = s.Project
		if err := liftColNorms(s, n, cn2, cn1); err != nil {
			return nil, fmt.Errorf("mm: shard %d: %w", i, err)
		}
		estAt += a.Cols()
	}
	// The segments must tile the planned workload's rows without gaps or
	// overlaps: otherwise scattered answers would silently drop or
	// clobber rows.
	sort.Slice(scatter, func(i, j int) bool { return scatter[i].start < scatter[j].start })
	at := 0
	for _, sg := range scatter {
		if sg.start != at {
			return nil, fmt.Errorf("mm: shard row segments leave a gap or overlap at row %d", at)
		}
		at += sg.n
	}
	if planned.NumQueries() != at {
		return nil, fmt.Errorf("mm: planned workload has %d queries, shards cover %d", planned.NumQueries(), at)
	}

	solver := linalg.NewBlockSolver(strategies, solvers)
	composite := linalg.WithColNorms(
		linalg.ComposeOps(solver.Op(), linalg.StackOps(projections...)), cn2, cn1)
	return &Mechanism{
		a:       composite,
		solver:  solver,
		sensL2:  linalg.MaxColNorm2Op(composite),
		shards:  shards,
		planned: planned,
		scatter: scatter,
	}, nil
}

// liftColNorms accumulates a shard's strategy column norms onto the
// original cells through its projection: original cell j contributes to
// shard cell π(j), so the composite's column norm at j gains the shard's
// norm at π(j). The projection must map each original cell to at most one
// shard cell with weight 1; the index map is recovered with two
// transposed matvecs (index vector and coverage vector).
func liftColNorms(s Shard, n int, cn2, cn1 []float64) error {
	subCells := s.Project.Rows()
	idxVec := make([]float64, subCells)
	ones := make([]float64, subCells)
	for i := range idxVec {
		idxVec[i] = float64(i)
		ones[i] = 1
	}
	idx := linalg.MulVecT(s.Project, idxVec)
	cover := linalg.MulVecT(s.Project, ones)
	shardCN2 := linalg.OperatorColNorms2(s.Mechanism.Strategy())
	shardCN1 := linalg.OperatorColNormsL1(s.Mechanism.Strategy())
	for j := 0; j < n; j++ {
		switch {
		case cover[j] == 0:
			continue
		//lint:allow floateq: validating a 0/1 projection matrix — entries are exactly 0 or 1 by construction, anything else is a malformed shard map
		case cover[j] != 1:
			return fmt.Errorf("projection is not a 0/1 single-target map (cell %d has coverage %g)", j, cover[j])
		}
		k := int(idx[j] + 0.5)
		if k < 0 || k >= subCells {
			return fmt.Errorf("projection maps cell %d outside the sub-domain", j)
		}
		cn2[j] += shardCN2[k]
		cn1[j] += shardCN1[k]
	}
	return nil
}

// Shards returns the shard list for sharded mechanisms and nil otherwise.
func (m *Mechanism) Shards() []Shard { return m.shards }

// checkPlanned refuses, on a sharded mechanism, any workload but the one
// it was planned for: the shard row segments are meaningless for any
// other, even one with the same query count.
func (m *Mechanism) checkPlanned(w *workload.Workload) error {
	if m.shards != nil && w != m.planned {
		return fmt.Errorf("mm: sharded mechanism answers only the workload it was planned for (%q); answer %q with its own plan",
			m.planned.Name(), w.Name())
	}
	return nil
}

// scatterSeg locates one contiguous run of workload rows inside a shard:
// original rows [start, start+n) are sub-workload rows [wOff, wOff+n) of
// w, answered on the estimate slice xcat[estOff : estOff+cells].
type scatterSeg struct {
	start, n int
	wOff     int
	estOff   int
	cells    int
	w        *workload.Workload
}

// shardRangeInto answers original workload rows [lo,hi) of a sharded
// mechanism into dst: each overlapped scatter segment answers its
// sub-workload row range on its shard's slice of the concatenated
// estimate xcat. A buffered answer is the range [0, rows), so buffered
// and streamed sharded answers run the same kernels and agree bit for
// bit.
func (m *Mechanism) shardRangeInto(dst, xcat []float64, lo, hi int) {
	segs := m.scatter
	i := sort.Search(len(segs), func(i int) bool { return segs[i].start+segs[i].n > lo })
	for ; i < len(segs) && segs[i].start < hi; i++ {
		sg := segs[i]
		a, b := max(sg.start, lo), min(sg.start+sg.n, hi)
		xs := xcat[sg.estOff : sg.estOff+sg.cells]
		sg.w.MulQueriesRangeInto(dst[a-lo:b-lo], xs, sg.wOff+(a-sg.start), sg.wOff+(b-sg.start))
	}
}
