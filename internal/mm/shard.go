package mm

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
// Inference runs per shard — each shard's noisy measurements are solved
// by that shard's own prepared inference method, with bounded parallelism
// — and workload answers are the per-shard sub-workload answers scattered
// back into the original row order.

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
// measurements. planned is the original workload the composite answers —
// sharded mechanisms can answer no other (nil falls back to a
// query-count check only). parallelism bounds how many shards infer
// concurrently (≤0 selects GOMAXPROCS). At least two shards are
// required.
func NewShardedMechanism(planned *workload.Workload, shards []Shard, parallelism int) (*Mechanism, error) {
	if len(shards) < 2 {
		return nil, fmt.Errorf("mm: sharded mechanism needs ≥2 shards, got %d", len(shards))
	}
	n := shards[0].Project.Cols()
	var totalQueries int
	strategies := make([]linalg.Operator, len(shards))
	projections := make([]linalg.Operator, len(shards))
	cn2 := make([]float64, n)
	cn1 := make([]float64, n)
	var allSegs []RowSegment
	for i, s := range shards {
		if s.Mechanism == nil || s.Project == nil || s.Workload == nil {
			return nil, fmt.Errorf("mm: shard %d is missing a mechanism, projection or workload", i)
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
			segLen += seg.Len
		}
		if segLen != s.Workload.NumQueries() {
			return nil, fmt.Errorf("mm: shard %d segments cover %d rows, sub-workload has %d queries", i, segLen, s.Workload.NumQueries())
		}
		totalQueries += segLen
		strategies[i] = a
		projections[i] = s.Project
		if err := liftColNorms(s, n, cn2, cn1); err != nil {
			return nil, fmt.Errorf("mm: shard %d: %w", i, err)
		}
		allSegs = append(allSegs, s.Segments...)
	}
	// The segments must tile [0, totalQueries) without gaps or overlaps —
	// otherwise scattered answers would silently drop or clobber rows.
	sort.Slice(allSegs, func(i, j int) bool { return allSegs[i].Start < allSegs[j].Start })
	at := 0
	for _, seg := range allSegs {
		if seg.Start != at {
			return nil, fmt.Errorf("mm: shard row segments leave a gap or overlap at row %d", at)
		}
		at += seg.Len
	}

	blockOnly := linalg.BlockDiag(strategies...)
	projStack := linalg.StackOps(projections...)
	composite := linalg.WithColNorms(
		linalg.ComposeOps(blockOnly, projStack), cn2, cn1)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(shards) {
		parallelism = len(shards)
	}
	if planned != nil && planned.NumQueries() != totalQueries {
		return nil, fmt.Errorf("mm: planned workload has %d queries, shards cover %d", planned.NumQueries(), totalQueries)
	}
	m := &Mechanism{
		a:         composite,
		sensL2:    linalg.MaxColNorm2Op(composite),
		shards:    shards,
		shardPar:  parallelism,
		blockOnly: blockOnly,
		planned:   planned,
	}
	return m, nil
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

// totalShardQueries sums the shard sub-workloads' query counts.
func (m *Mechanism) totalShardQueries() int {
	var total int
	for _, s := range m.shards {
		total += s.Workload.NumQueries()
	}
	return total
}

// shardJob is one shard's inference, enqueued by value to the
// mechanism's persistent shard workers: solve y into dst with sm's own
// inference method, record the error, signal the release's WaitGroup.
type shardJob struct {
	sm      *Mechanism
	dst, y  []float64
	err     *error
	release *sync.WaitGroup
}

// startShardWorkers launches the composite's persistent shard-inference
// workers, shardPar of them, fed by one buffered channel. Starting them
// lazily on the first sharded release (rather than in the constructor)
// keeps design-only mechanisms goroutine-free. The workers live for the
// mechanism's lifetime and serve every release — concurrent releases on
// one composite share the same shardPar inference slots, which preserves
// the bounded-parallelism contract globally rather than per call.
func (m *Mechanism) startShardWorkers() {
	m.shardCh = make(chan shardJob, len(m.shards))
	for i := 0; i < m.shardPar; i++ {
		go func() {
			for j := range m.shardCh {
				sub := j.sm.GetScratch()
				*j.err = j.sm.inferInto(j.dst, j.y, sub)
				j.sm.PutScratch(sub)
				j.release.Done()
			}
		}()
	}
}

// inferShardedInto splits the composite measurement vector by shard and
// runs each shard's own inference, with bounded parallelism, writing the
// per-shard sub-domain estimates into their slices of dst. Each shard
// rents scratch from its own mechanism's pool and the fan-out state
// (error slots, WaitGroup) lives in the release's scratch, so the
// steady-state sharded release performs zero allocations (pinned by
// TestShardedReleaseZeroAlloc).
func (m *Mechanism) inferShardedInto(dst, y []float64, sc *ReleaseScratch) error {
	m.shardOnce.Do(m.startShardWorkers)
	if cap(sc.shardErrs) < len(m.shards) {
		sc.shardErrs = make([]error, len(m.shards))
	}
	errs := sc.shardErrs[:len(m.shards)]
	sc.wg.Add(len(m.shards))
	at, estAt := 0, 0
	for i, s := range m.shards {
		rows := s.Mechanism.a.Rows()
		cells := s.Mechanism.a.Cols()
		m.shardCh <- shardJob{
			sm:      s.Mechanism,
			dst:     dst[estAt : estAt+cells],
			y:       y[at : at+rows],
			err:     &errs[i],
			release: &sc.wg,
		}
		at += rows
		estAt += cells
	}
	sc.wg.Wait()
	var first error
	for i, err := range errs {
		if err != nil && first == nil {
			first = fmt.Errorf("mm: shard %d inference: %w", i, err)
		}
		errs[i] = nil // don't retain shard errors across pooled reuses
	}
	return first
}

// shardAnswers turns concatenated sub-domain estimates into the original
// workload's answers: each shard answers its sub-workload on its estimate
// slice and the answers are scattered through the row segments.
func (m *Mechanism) shardAnswers(xcat []float64) []float64 {
	out := make([]float64, m.totalShardQueries())
	sc := m.GetScratch()
	m.shardAnswersInto(sc, out, xcat)
	m.PutScratch(sc)
	return out
}

// shardAnswersInto is shardAnswers writing into dst. Single-segment
// shards (cell partitions) answer straight into their destination rows;
// multi-segment shards stage through the scratch's scatter buffer.
func (m *Mechanism) shardAnswersInto(sc *ReleaseScratch, dst, xcat []float64) {
	at := 0
	for _, s := range m.shards {
		cells := s.Workload.Cells()
		xs := xcat[at : at+cells]
		at += cells
		if len(s.Segments) == 1 {
			seg := s.Segments[0]
			s.Workload.MulQueriesInto(dst[seg.Start:seg.Start+seg.Len], xs)
			continue
		}
		sc.tmp = growFloats(sc.tmp, s.Workload.NumQueries())
		s.Workload.MulQueriesInto(sc.tmp, xs)
		pos := 0
		for _, seg := range s.Segments {
			copy(dst[seg.Start:seg.Start+seg.Len], sc.tmp[pos:pos+seg.Len])
			pos += seg.Len
		}
	}
}
