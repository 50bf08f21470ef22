// Plan codec: the binary serialization of a planner.Plan, built on the
// operator codec in internal/linalg. One encoded plan carries everything
// a restarted process needs to serve releases without re-designing:
//
//   - the winning generator's name and rationale;
//   - the planned workload (name, domain shape, query operator);
//   - the strategy operator, its dense form and eigenvalues when the
//     generator computed them, and the dense pseudo-inverse of a
//     dense-pinv plan so rehydration skips the O(n³) preparation (exact
//     tree and Kronecker solvers are rebuilt from the operator, which is
//     linear-time);
//   - the explicit inference method, modeled cost, design time and the
//     full admission-decision list (so /design of a warm plan still
//     explains itself);
//   - the memoized per-privacy-pair error analyses;
//   - for sharded plans, the full shard structure: per-shard info,
//     projection operator, row segments and the recursive sub-plan.
//
// The envelope (see store.go) frames the payload with a magic tag, the
// store format version, the library version and a SHA-256 checksum;
// Decode refuses anything whose version or checksum does not match, so an
// incompatible or corrupt plan is skipped with a reason, never mis-loaded.

package planstore

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"adaptivemm/internal/binenc"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/workload"
)

// maxShardNesting bounds plan recursion: a sharded plan's sub-plans must
// be monolithic (the planner never re-shards a shard).
const maxShardNesting = 1

// The primitive writers and the bounds-checked reader are shared with
// the operator codec in internal/linalg; see internal/binenc.

// --- operator / matrix helpers ---

func putOperator(w *bytes.Buffer, op linalg.Operator) error {
	blob, err := linalg.MarshalOperator(op)
	if err != nil {
		return err
	}
	binenc.PutBytes(w, blob)
	return nil
}

func readOperator(r *binenc.Reader) (linalg.Operator, error) {
	blob, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	return linalg.UnmarshalOperator(blob)
}

func readMatrix(r *binenc.Reader, what string) (*linalg.Matrix, error) {
	op, err := readOperator(r)
	if err != nil {
		return nil, err
	}
	m, ok := op.(*linalg.Matrix)
	if !ok {
		return nil, fmt.Errorf("planstore: %s is a %T, want a dense matrix", what, op)
	}
	return m, nil
}

// --- plan encoding ---

func encodeWorkload(w *bytes.Buffer, wl *workload.Workload) error {
	binenc.PutString(w, wl.Name())
	binenc.PutInts(w, wl.Shape())
	op := wl.Op()
	if op == nil {
		return fmt.Errorf("planstore: workload %q is gram-only and cannot be persisted", wl.Name())
	}
	return putOperator(w, op)
}

func readWorkload(r *binenc.Reader) (*workload.Workload, error) {
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	dims, err := r.Ints()
	if err != nil {
		return nil, err
	}
	shape, err := domain.NewShape(dims...)
	if err != nil {
		return nil, fmt.Errorf("planstore: workload %q: %w", name, err)
	}
	op, err := readOperator(r)
	if err != nil {
		return nil, fmt.Errorf("planstore: workload %q operator: %w", name, err)
	}
	if op.Cols() != shape.Size() {
		return nil, fmt.Errorf("planstore: workload %q operator has %d cells for shape %v", name, op.Cols(), shape)
	}
	return workload.FromOperator(name, shape, op), nil
}

func encodePlan(w *bytes.Buffer, plan *planner.Plan, depth int) error {
	st := plan.State()
	if len(st.ShardPlans) > 0 && depth >= maxShardNesting {
		return fmt.Errorf("planstore: shard sub-plan is itself sharded")
	}
	binenc.PutString(w, st.Generator)
	binenc.PutString(w, st.Note)
	if err := encodeWorkload(w, st.Workload); err != nil {
		return err
	}
	binenc.PutBool(w, st.Eigenvalues != nil)
	if st.Eigenvalues != nil {
		binenc.PutFloats(w, st.Eigenvalues)
	}
	w.WriteByte(byte(st.Inference))
	binenc.PutFloat(w, st.ModeledCost)
	binenc.PutU64(w, uint64(st.DesignTime))
	binenc.PutInt(w, st.AnalysisCap)
	binenc.PutInt(w, len(st.Decisions))
	for _, d := range st.Decisions {
		binenc.PutString(w, d.Generator)
		binenc.PutBool(w, d.Admitted)
		binenc.PutBool(w, d.Selected)
		binenc.PutFloat(w, d.ModeledCost)
		binenc.PutString(w, d.Reason)
	}
	binenc.PutInt(w, len(st.ErrByPair))
	for pr, e := range st.ErrByPair {
		binenc.PutFloat(w, pr.Epsilon)
		binenc.PutFloat(w, pr.Delta)
		binenc.PutFloat(w, e)
	}
	binenc.PutInt(w, len(st.Shards))
	if len(st.Shards) == 0 {
		return encodeMonolithicStrategy(w, st)
	}
	if len(st.ShardPlans) != len(st.Shards) {
		return fmt.Errorf("planstore: plan has %d shard infos for %d sub-plans", len(st.Shards), len(st.ShardPlans))
	}
	shards := st.Mechanism.Shards()
	if len(shards) != len(st.Shards) {
		return fmt.Errorf("planstore: mechanism has %d shards, plan reports %d", len(shards), len(st.Shards))
	}
	for i, info := range st.Shards {
		binenc.PutString(w, info.Kind)
		binenc.PutInts(w, info.Attrs)
		binenc.PutInt(w, info.Cells)
		binenc.PutInt(w, info.Queries)
		binenc.PutString(w, info.Generator)
		binenc.PutString(w, info.Inference)
		binenc.PutFloat(w, info.ModeledCost)
		if err := putOperator(w, shards[i].Project); err != nil {
			return fmt.Errorf("planstore: shard %d projection: %w", i, err)
		}
		binenc.PutInt(w, len(shards[i].Segments))
		for _, seg := range shards[i].Segments {
			binenc.PutInt(w, seg.Start)
			binenc.PutInt(w, seg.Len)
		}
		if err := encodePlan(w, st.ShardPlans[i], depth+1); err != nil {
			return fmt.Errorf("planstore: shard %d sub-plan: %w", i, err)
		}
	}
	return nil
}

// encodeMonolithicStrategy writes the strategy operator of a non-sharded
// plan and, for a dense-pinv plan, its pseudo-inverse. (A sharded plan's composite
// operator is not persisted: rehydration rebuilds it, with its lifted
// column norms, from the shard structure.)
func encodeMonolithicStrategy(w *bytes.Buffer, st planner.PlanState) error {
	if err := putOperator(w, st.Op); err != nil {
		return err
	}
	// Dense: usually the operator itself (flagged, not re-encoded).
	switch {
	case st.Dense == nil:
		w.WriteByte(0)
	case func() bool { m, ok := st.Op.(*linalg.Matrix); return ok && m == st.Dense }():
		w.WriteByte(1)
	default:
		w.WriteByte(2)
		if err := putOperator(w, st.Dense); err != nil {
			return err
		}
	}
	pinv := st.Mechanism.PreparedPinv()
	binenc.PutBool(w, pinv != nil)
	if pinv != nil {
		if err := putOperator(w, pinv); err != nil {
			return err
		}
	}
	return nil
}

func readPlan(r *binenc.Reader, depth int) (*planner.Plan, error) {
	var st planner.PlanState
	var err error
	if st.Generator, err = r.String(); err != nil {
		return nil, err
	}
	if st.Note, err = r.String(); err != nil {
		return nil, err
	}
	if st.Workload, err = readWorkload(r); err != nil {
		return nil, err
	}
	hasEigen, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasEigen {
		if st.Eigenvalues, err = r.Floats(); err != nil {
			return nil, err
		}
	}
	infByte, err := r.Byte()
	if err != nil {
		return nil, err
	}
	st.Inference = mm.Inference(infByte)
	if st.ModeledCost, err = r.Float(); err != nil {
		return nil, err
	}
	dt, err := r.U64()
	if err != nil {
		return nil, err
	}
	st.DesignTime = time.Duration(dt)
	if st.AnalysisCap, err = r.IntBounded(math.MaxInt32, "analysis cap"); err != nil {
		return nil, err
	}
	nDec, err := r.IntBounded(r.Remaining(), "decision count")
	if err != nil {
		return nil, err
	}
	st.Decisions = make([]planner.Decision, nDec)
	for i := range st.Decisions {
		d := &st.Decisions[i]
		if d.Generator, err = r.String(); err != nil {
			return nil, err
		}
		if d.Admitted, err = r.Bool(); err != nil {
			return nil, err
		}
		if d.Selected, err = r.Bool(); err != nil {
			return nil, err
		}
		if d.ModeledCost, err = r.Float(); err != nil {
			return nil, err
		}
		if d.Reason, err = r.String(); err != nil {
			return nil, err
		}
	}
	nErr, err := r.IntBounded(r.Remaining()/24, "error-memo count")
	if err != nil {
		return nil, err
	}
	st.ErrByPair = make(map[mm.Privacy]float64, nErr)
	for i := 0; i < nErr; i++ {
		var pr mm.Privacy
		if pr.Epsilon, err = r.Float(); err != nil {
			return nil, err
		}
		if pr.Delta, err = r.Float(); err != nil {
			return nil, err
		}
		if st.ErrByPair[pr], err = r.Float(); err != nil {
			return nil, err
		}
	}
	nShards, err := r.IntBounded(r.Remaining(), "shard count")
	if err != nil {
		return nil, err
	}
	if nShards == 0 {
		if err := readMonolithicStrategy(r, &st); err != nil {
			return nil, err
		}
		return planner.RehydratePlan(st)
	}
	if depth >= maxShardNesting {
		return nil, fmt.Errorf("planstore: shard sub-plan is itself sharded")
	}
	return readShardedPlan(r, st, nShards, depth)
}

func readMonolithicStrategy(r *binenc.Reader, st *planner.PlanState) error {
	var err error
	if st.Op, err = readOperator(r); err != nil {
		return fmt.Errorf("planstore: strategy operator: %w", err)
	}
	denseMode, err := r.Byte()
	if err != nil {
		return err
	}
	switch denseMode {
	case 0:
	case 1:
		m, ok := st.Op.(*linalg.Matrix)
		if !ok {
			return fmt.Errorf("planstore: dense-is-op flag on a %T strategy", st.Op)
		}
		st.Dense = m
	case 2:
		if st.Dense, err = readMatrix(r, "dense strategy"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("planstore: unknown dense mode %d", denseMode)
	}
	hasPinv, err := r.Bool()
	if err != nil {
		return err
	}
	var pinv *linalg.Matrix
	if hasPinv {
		if pinv, err = readMatrix(r, "pseudo-inverse"); err != nil {
			return err
		}
	}
	st.Mechanism, err = mm.NewMechanismPrepared(st.Op, st.Inference, pinv)
	if err != nil {
		return fmt.Errorf("planstore: rebuilding mechanism: %w", err)
	}
	return nil
}

func readShardedPlan(r *binenc.Reader, st planner.PlanState, nShards, depth int) (*planner.Plan, error) {
	st.Shards = make([]planner.ShardInfo, nShards)
	st.ShardPlans = make([]*planner.Plan, nShards)
	shards := make([]mm.Shard, nShards)
	var err error
	for i := 0; i < nShards; i++ {
		info := &st.Shards[i]
		if info.Kind, err = r.String(); err != nil {
			return nil, err
		}
		if info.Attrs, err = r.Ints(); err != nil {
			return nil, err
		}
		if len(info.Attrs) == 0 {
			info.Attrs = nil
		}
		if info.Cells, err = r.IntBounded(math.MaxInt32, "shard cells"); err != nil {
			return nil, err
		}
		if info.Queries, err = r.IntBounded(math.MaxInt32, "shard queries"); err != nil {
			return nil, err
		}
		if info.Generator, err = r.String(); err != nil {
			return nil, err
		}
		if info.Inference, err = r.String(); err != nil {
			return nil, err
		}
		if info.ModeledCost, err = r.Float(); err != nil {
			return nil, err
		}
		project, err := readOperator(r)
		if err != nil {
			return nil, fmt.Errorf("planstore: shard %d projection: %w", i, err)
		}
		nSegs, err := r.IntBounded(r.Remaining(), "segment count")
		if err != nil {
			return nil, err
		}
		segs := make([]mm.RowSegment, nSegs)
		for j := range segs {
			if segs[j].Start, err = r.IntBounded(math.MaxInt32, "segment start"); err != nil {
				return nil, err
			}
			if segs[j].Len, err = r.IntBounded(math.MaxInt32, "segment length"); err != nil {
				return nil, err
			}
		}
		sub, err := readPlan(r, depth+1)
		if err != nil {
			return nil, fmt.Errorf("planstore: shard %d sub-plan: %w", i, err)
		}
		st.ShardPlans[i] = sub
		shards[i] = mm.Shard{
			Mechanism: sub.Mechanism,
			Project:   project,
			Workload:  sub.Workload,
			Segments:  segs,
		}
	}
	// Rebuild the composite mechanism from the shard structure; it
	// revalidates the projections, the segment tiling and the lifted
	// sensitivity, and its strategy operator becomes the plan's.
	mech, err := mm.NewShardedMechanism(st.Workload, shards, 0)
	if err != nil {
		return nil, fmt.Errorf("planstore: rebuilding sharded mechanism: %w", err)
	}
	st.Mechanism = mech
	st.Op = mech.Strategy()
	return planner.RehydratePlan(st)
}
