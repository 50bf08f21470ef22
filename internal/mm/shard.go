package mm

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/obs"
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
		inference: InferSharded,
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

// ShardBackend routes one shard's inference; implementations may run it
// on a remote worker. dst must be filled with exactly the shard's
// sub-domain estimate for the noisy measurements y. A backend whose
// executors solve with the same plan artifacts (the content-addressed
// store guarantees bit-identical operators) returns bit-identical
// estimates to the in-process path, because the per-shard solvers are
// deterministic. Implementations must be safe for concurrent calls:
// every sharded release fans all shards out at once.
//
// tr is the release's trace, nil unless the caller opted in; a remote
// backend propagates tr.ID to the worker (the X-AM-Trace header) and
// may add spans of its own (e.g. a degraded local fallback).
type ShardBackend interface {
	InferShard(tr *obs.Trace, shard int, dst, y []float64) error
}

// SetShardBackend routes the mechanism's per-shard inference through b
// — local and remote execution share one code path, one noise stream
// and one accountant reservation; only the solve of each shard's slice
// moves. nil detaches the backend and restores the in-process shard
// workers. Attach and detach are atomic with respect to concurrent
// releases (each release reads the backend once).
func (m *Mechanism) SetShardBackend(b ShardBackend) error {
	if m.shards == nil {
		return fmt.Errorf("mm: shard backend on a non-sharded mechanism")
	}
	if b == nil {
		m.backend.Store(nil)
		return nil
	}
	m.backend.Store(&b)
	return nil
}

// ShardBackend returns the currently attached backend, nil when shard
// inference runs in process.
func (m *Mechanism) ShardBackend() ShardBackend {
	if bp := m.backend.Load(); bp != nil {
		return *bp
	}
	return nil
}

// ShardDims reports one shard's measurement-row and sub-domain cell
// counts — the slice lengths InferShardLocal (and any ShardBackend)
// exchanges for that shard.
func (m *Mechanism) ShardDims(shard int) (rows, cells int, err error) {
	if m.shards == nil {
		return 0, 0, fmt.Errorf("mm: not a sharded mechanism")
	}
	if shard < 0 || shard >= len(m.shards) {
		return 0, 0, fmt.Errorf("mm: shard %d out of range [0,%d)", shard, len(m.shards))
	}
	a := m.shards[shard].Mechanism.a
	return a.Rows(), a.Cols(), nil
}

// InferShardLocal solves one shard's noisy measurements with that
// shard's own prepared inference method through pooled scratch — the
// worker-side entry point of a distributed release, and the
// coordinator's local fallback when the fleet fails. The bits written
// to dst are identical to what the in-process sharded path produces for
// the same y.
func (m *Mechanism) InferShardLocal(shard int, dst, y []float64) error {
	rows, cells, err := m.ShardDims(shard)
	if err != nil {
		return err
	}
	if len(y) != rows || len(dst) != cells {
		return fmt.Errorf("mm: shard %d takes %d measurements and %d cells, got %d and %d",
			shard, rows, cells, len(y), len(dst))
	}
	sm := m.shards[shard].Mechanism
	sc := sm.GetScratch()
	err = sm.inferInto(dst, y, sc)
	sm.PutScratch(sc)
	return err
}

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
	if bp := m.backend.Load(); bp != nil {
		return m.inferShardedVia(*bp, dst, y, sc)
	}
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

// inferShardedVia fans the shards out to an attached backend, one
// goroutine per shard: the backend path is network-bound, not
// CPU-bound, so the persistent bounded workers would only serialize
// remote waits. dst and y are sliced at exactly the same boundaries as
// the local path, and the first shard error wins with the same shape,
// so local and remote execution differ only in where each slice is
// solved.
func (m *Mechanism) inferShardedVia(b ShardBackend, dst, y []float64, sc *ReleaseScratch) error {
	if cap(sc.shardErrs) < len(m.shards) {
		sc.shardErrs = make([]error, len(m.shards))
	}
	errs := sc.shardErrs[:len(m.shards)]
	sc.wg.Add(len(m.shards))
	tr := sc.Trace
	at, estAt := 0, 0
	for i, s := range m.shards {
		rows := s.Mechanism.a.Rows()
		cells := s.Mechanism.a.Cols()
		go func(i int, dst, y []float64) {
			defer sc.wg.Done()
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			errs[i] = b.InferShard(tr, i, dst, y)
			if tr != nil {
				tr.AddSpan("shard:"+strconv.Itoa(i), t0)
			}
		}(i, dst[estAt:estAt+cells], y[at:at+rows])
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
