package planner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

// The sharded generator: the first plan that is itself a composition of
// plans. A workload that decomposes into independent blocks — disjoint
// marginal-subset groups, or an explicit block-diagonal query matrix
// (see workload.MarginalBlocks / workload.CellBlocks) — is split, each
// shard is planned independently through this same registry (shards may
// win different generators: closed-form marginals for one block,
// hierarchical for another), and the per-shard plans are stitched into
// one composite Plan whose operator is a block-diagonal linalg stack over
// the shard projections, whose expected error combines the shard
// analyses, and whose release path runs the shard mechanisms with bounded
// parallelism under the caller's single accountant reservation.

const (
	// DefaultMaxShards caps the shard count when hints set none. Past it,
	// the smallest blocks are merged (shards keep all queries; only the
	// split granularity drops).
	DefaultMaxShards = 16

	// ShardMinCells is the smallest domain worth sharding: below it even
	// the exact monolithic design costs microseconds and the composition
	// bookkeeping is pure overhead.
	ShardMinCells = 64

	// shardStitchCostPerCell models the per-cell stitch work (lifting the
	// shard column norms onto the original domain), per shard.
	shardStitchCostPerCell = 10
)

// shardedGen plans each block of a splittable workload through the
// planner it is registered in, then stitches the sub-plans.
type shardedGen struct {
	p *Planner
}

func (g *shardedGen) Name() string { return "sharded" }

// subHints derives the hints a shard's sub-plan is made with: solver and
// budget knobs are inherited, while the forced generator, eager error
// analysis and shard cap do not apply inside a shard.
func subHints(h Hints) Hints {
	sh := h
	sh.Generator = ""
	sh.Privacy = mm.Privacy{} // shard analyses are memoized lazily
	sh.MaxShards = -1         // a shard never re-shards
	return sh
}

// splitBlocks runs the splitters in order: marginal blocks for marginal
// sets, cell blocks for explicit block-diagonal matrices. The second
// result is a refusal reason when the workload is not shardable.
func splitBlocks(w *workload.Workload, maxShards int) ([]workload.Block, string) {
	if blocks, ok := workload.MarginalBlocks(w, maxShards); ok {
		if len(blocks) < 2 {
			return nil, refuse("block-count", "the marginal subsets form one connected attribute group; sharding needs ≥2 disjoint blocks")
		}
		return blocks, ""
	}
	if blocks, ok := workload.CellBlocks(w, maxShards); ok {
		if len(blocks) < 2 {
			return nil, refuse("block-count", "the query rows touch one connected cell group; sharding needs ≥2 disjoint blocks")
		}
		return blocks, ""
	}
	return nil, refuse("shape", "workload is neither a marginal set with disjoint attribute groups nor an explicit block-diagonal matrix")
}

func (g *shardedGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	if h.MaxShards < 0 {
		return nil, refuse("hint", "sharding disabled (MaxShards < 0)")
	}
	maxShards := h.MaxShards
	if maxShards == 0 {
		maxShards = DefaultMaxShards
	}
	if n := w.Cells(); n < ShardMinCells {
		return nil, refuse("min-cells", "%d cells under the %d-cell sharding floor (composition overhead would dominate)", n, ShardMinCells)
	}
	blocks, reject := splitBlocks(w, maxShards)
	if reject != "" {
		return nil, reject
	}

	// Admit each shard through the registry without building anything:
	// the composite's modeled cost is the sum of the shards' winning
	// candidates plus the stitch work, and its error rank is the worst
	// shard's rank (a composite is only as good as its weakest family).
	sh := subHints(h)
	cost := float64(len(blocks)) * float64(w.Cells()) * shardStitchCostPerCell
	score := 0.0
	var summary []string
	for _, b := range blocks {
		cands, _, err := g.p.propose(b.Sub, sh)
		if err != nil {
			return nil, refuse("shard-admission", "block (%s) has no admissible generator: %v", b.Label(), err)
		}
		top := cands[0]
		cost += top.prop.Cost
		if top.prop.Score > score {
			score = top.prop.Score
		}
		summary = append(summary, fmt.Sprintf("%s→%s", b.Label(), top.gen.Name()))
	}

	if !forced {
		// The split must beat the best monolithic candidate on the
		// planner's own (error rank, cost) order; otherwise report which
		// generator dominates so /design explain output is actionable.
		if name, ms, mc, ok := g.bestMonolithic(w, h); ok &&
			//lint:allow floateq: lexicographic (rank, cost) tie-break on the planner's own modeled scores; exact ties are meaningful, not accidental
			(ms < score || (ms == score && mc <= cost)) {
			return nil, refuse("monolithic-dominates", "%s covers the whole workload at rank %.0f for modeled cost %.3g (sharded: rank %.0f, cost %.3g)",
				name, ms, mc, score, cost)
		}
	}

	return &Proposal{
		Cost:  cost,
		Score: score,
		Note: fmt.Sprintf("sharded into %d independent blocks (%s): per-shard designs stitched into a block-diagonal composite",
			len(blocks), strings.Join(summary, "; ")),
		Build: func() (Built, error) { return g.build(w, blocks, sh) },
	}, ""
}

// bestMonolithic runs every other generator's admission on the whole
// workload and returns the best (score, cost) candidate that fits the
// design budget — a refused split must never cite a generator the budget
// gate is about to reject.
func (g *shardedGen) bestMonolithic(w *workload.Workload, h Hints) (name string, score, cost float64, ok bool) {
	g.p.mu.Lock()
	gens := append([]Generator(nil), g.p.gens...)
	g.p.mu.Unlock()
	budget := h.designBudget()
	for _, other := range gens {
		if other.Name() == g.Name() {
			continue
		}
		prop, _ := other.Propose(w, h, false)
		if prop == nil || prop.Cost > budget {
			continue
		}
		//lint:allow floateq: lexicographic (rank, cost) tie-break on modeled scores, same order as the refusal check above
		if !ok || prop.Score < score || (prop.Score == score && prop.Cost < cost) {
			name, score, cost, ok = other.Name(), prop.Score, prop.Cost, true
		}
	}
	return name, score, cost, ok
}

// build plans every shard (in parallel, bounded by the host's cores) and
// stitches the sub-plans into the composite mechanism.
func (g *shardedGen) build(w *workload.Workload, blocks []workload.Block, sh Hints) (Built, error) {
	plans := make([]*Plan, len(blocks))
	errs := make([]error, len(blocks))
	par := runtime.GOMAXPROCS(0)
	if par > len(blocks) {
		par = len(blocks)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, b := range blocks {
		wg.Add(1)
		go func(i int, b workload.Block) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			plans[i], errs[i] = g.p.Plan(b.Sub, sh)
		}(i, b)
	}
	wg.Wait()
	shards := make([]mm.Shard, len(blocks))
	infos := make([]ShardInfo, len(blocks))
	for i, b := range blocks {
		if errs[i] != nil {
			return Built{}, fmt.Errorf("shard (%s): %w", b.Label(), errs[i])
		}
		segs := make([]mm.RowSegment, len(b.Segments))
		for j, s := range b.Segments {
			segs[j] = mm.RowSegment{Start: s.Start, Len: s.Len}
		}
		shards[i] = mm.Shard{
			Mechanism: plans[i].Mechanism,
			Project:   b.Project,
			Workload:  b.Sub,
			Segments:  segs,
		}
		infos[i] = ShardInfo{
			Kind:        b.Kind,
			Attrs:       b.Attrs,
			Cells:       b.Sub.Cells(),
			Queries:     b.Sub.NumQueries(),
			Generator:   plans[i].Generator,
			Inference:   plans[i].Inference.String(),
			ModeledCost: plans[i].ModeledCost,
		}
	}
	mech, err := mm.NewShardedMechanism(w, shards)
	if err != nil {
		return Built{}, err
	}
	return Built{
		Op:         mech.Strategy(),
		Prepared:   mech,
		Shards:     infos,
		ShardPlans: plans,
	}, nil
}
