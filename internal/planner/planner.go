// Package planner is the unified cost-based strategy planner: the single
// place where "which strategy answers this workload, and how" is decided.
//
// Before it existed the choice was re-implemented three times with
// different rules — core auto-switched its pipelines on a structured
// threshold, the HTTP server hard-coded an eigen→principal→hierarchical
// escalation ladder, and the mechanism guessed its inference path from
// the strategy representation. The planner consolidates all of that:
//
//   - a registry of candidate strategy GENERATORS (identity, hierarchical,
//     exact eigen design with its barrier/first-order solvers,
//     eigen-separation, principal-vectors, the closed-form marginal
//     designer), each with an admission rule and a modeled design cost;
//   - a COST MODEL combining the paper's comparative expected-error
//     analysis (generators are ranked by the error class the paper
//     establishes for them) with modeled design-time cost in work units;
//   - per-request HINTS (max design time/cost, domain size class, privacy
//     pair) that tilt the choice;
//   - a PLAN artifact carrying the chosen operator, eigenvalues, error
//     estimate, prepared mechanism and its solver kind, so downstream
//     layers execute decisions instead of re-making them.
//
// A plan is a pure function of (workload, hints): the planner keeps no
// history, so the same request gets the same generator in a fresh process
// and after any sequence of earlier designs.
//
// The public API, core and the release-engine server all plan through
// this package; new generators (sharded, multi-backend) register here
// without touching any caller.
package planner

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

// StructuredThreshold is the admission rule, moved here from core, that
// sends product-form workloads down the factored (matrix-free) pipeline:
// past this many cells the dense eigenbasis is never materialized.
const StructuredThreshold = 1024

// SizeClass buckets domains by the algebra they can afford. The planner
// derives it from the cell count; a hint can only restrict it further
// (declare a domain Large to forbid dense algebra regardless of size).
type SizeClass int

const (
	// SizeAuto derives the class from the workload's cell count.
	SizeAuto SizeClass = iota
	// SizeSmall domains (≤ SmallCellCap cells) afford exact dense design
	// within the default design budget.
	SizeSmall
	// SizeMedium domains (≤ MediumCellCap cells) afford dense algebra
	// when the budget allows it.
	SizeMedium
	// SizeLarge domains run matrix-free only.
	SizeLarge
)

const (
	// SmallCellCap bounds SizeSmall.
	SmallCellCap = 512
	// MediumCellCap bounds SizeMedium, and with it every generator that
	// needs dense O(n²) memory or O(n³) algebra.
	MediumCellCap = 4096
	// FactoredExactCellCap bounds the exact factored eigen design, whose
	// weighting program still streams an n×n constraint matrix.
	FactoredExactCellCap = 8192
)

// DefaultAnalysisCellCap is the cell count up to which a plan computes
// the exact expected-error analysis (an O(n³) dense eigendecomposition)
// when no hint overrides it.
const DefaultAnalysisCellCap = 512

// DefaultMaxDesignCost is the design budget, in modeled work units
// (roughly floating-point operations), applied when hints set none. It is
// calibrated so the exact eigen design is admitted up to ~SmallCellCap
// cells and refused past it — the escalation point the server shipped
// with before the planner existed.
const DefaultMaxDesignCost = 6e9

// DefaultUnitsPerSecond is the fixed work-units-per-second rate at which
// MaxDesignTime hints convert into a cost budget. The rate is a constant,
// not a measurement, so a time hint budgets the same on every machine and
// after any planning history: it bounds modeled cost, not wall-clock time.
const DefaultUnitsPerSecond = 5e8

// Hints are the per-request knobs a caller passes to Plan. The zero value
// asks for the default cost-based choice.
type Hints struct {
	// Privacy is the (ε,δ) pair used to report the plan's expected error
	// and lower bound. The zero value skips the error analysis (the
	// generator ranking does not depend on it: expected error scales
	// uniformly in P(ε,δ) across candidates).
	Privacy mm.Privacy
	// MaxDesignCost bounds the modeled design cost in work units; 0
	// applies DefaultMaxDesignCost.
	MaxDesignCost float64
	// MaxDesignTime bounds design time, converted to work units at
	// DefaultUnitsPerSecond. When both it and MaxDesignCost are set the
	// tighter bound wins.
	MaxDesignTime time.Duration
	// Size restricts the domain-size class (it can only tighten the
	// derived class, never relax it).
	Size SizeClass
	// Generator forces a named generator instead of the cost-based
	// choice; the design budget is then ignored, but hard admission rules
	// (memory, representation) still apply.
	Generator string
	// GroupSize overrides eigen-separation's group size (default n^⅓).
	GroupSize int
	// PrincipalK overrides principal-vectors' weighted-query count
	// (default 16).
	PrincipalK int
	// Branch overrides the hierarchical branching factor (default 2).
	Branch int
	// FirstOrder forces the first-order solver in the optimizing
	// generators.
	FirstOrder bool
	// AnalysisCap overrides the cell count up to which the exact error
	// analysis runs: 0 applies DefaultAnalysisCellCap, negative disables
	// the analysis.
	AnalysisCap int
	// MaxShards bounds how many shards the sharded generator may split a
	// workload into: 0 applies DefaultMaxShards, values ≥ 2 cap the count
	// (excess blocks are merged smallest-first), and negative values
	// disable sharding entirely.
	MaxShards int
}

// Fingerprint returns the canonical encoding of every hint that affects
// the plan — the suffix of the server's and the plan store's cache keys.
// Privacy is excluded: it scales all candidates' errors by the same
// factor and never changes the winner (per-pair error analyses are
// memoized on the Plan instead). AnalysisCap is excluded too: it only
// bounds how large a domain gets the eager error analysis, never which
// generator wins — and keeping it out lets a plan saved offline (amdesign
// -save, analysis cap 2048) land in the cache slot a server (analysis cap
// 512) looks up for the same spec.
func (h Hints) Fingerprint() string {
	return fmt.Sprintf("v4|c=%g|t=%d|sz=%d|gen=%s|g=%d|k=%d|b=%d|fo=%t|ms=%d",
		h.MaxDesignCost, int64(h.MaxDesignTime), h.Size,
		h.Generator, h.GroupSize, h.PrincipalK, h.Branch, h.FirstOrder, h.MaxShards)
}

// sizeClass returns the effective class: derived from the cell count,
// tightened by the hint.
func (h Hints) sizeClass(n int) SizeClass {
	derived := SizeSmall
	switch {
	case n > MediumCellCap:
		derived = SizeLarge
	case n > SmallCellCap:
		derived = SizeMedium
	}
	if h.Size > derived {
		return h.Size
	}
	return derived
}

func (h Hints) analysisCap() int {
	switch {
	case h.AnalysisCap < 0:
		return 0
	case h.AnalysisCap == 0:
		return DefaultAnalysisCellCap
	default:
		return h.AnalysisCap
	}
}

// Proposal is a generator's admission answer: the modeled design cost,
// the error rank used for selection, and the deferred build.
type Proposal struct {
	// Cost is the modeled design cost in work units.
	Cost float64
	// Score ranks the expected workload error of this generator's output
	// relative to the other generators (lower is better), following the
	// paper's comparative analysis. Ties break toward lower Cost.
	Score float64
	// Note is a one-line rationale reported in the plan.
	Note string
	// Build runs the design.
	Build func() (Built, error)
}

// Built is a generator's raw output before the planner prepares the
// mechanism around it.
type Built struct {
	// Op is the strategy operator (always set); a *linalg.Matrix when
	// the pipeline produced an explicit strategy.
	Op linalg.Operator
	// Eigenvalues of WᵀW when the generator computed them.
	Eigenvalues []float64
	// Prepared is a mechanism the generator already built around the
	// strategy; when set the planner skips its own inference choice and
	// mechanism preparation (the sharded generator's composite mechanism
	// fixes both).
	Prepared *mm.Mechanism
	// Shards describes the composite plan's shards, in order, when the
	// strategy is a sharded composition.
	Shards []ShardInfo
	// ShardPlans are the underlying per-shard plans of a composite.
	ShardPlans []*Plan
}

// ShardInfo is the reportable summary of one shard of a composite plan;
// the server surfaces the list in /design responses.
type ShardInfo struct {
	// Kind is "marginal-block" or "cell-block".
	Kind string `json:"kind"`
	// Attrs lists the original attribute ids the shard owns (marginal
	// blocks only).
	Attrs []int `json:"attrs,omitempty"`
	// Cells is the shard's sub-domain size.
	Cells int `json:"cells"`
	// Queries is the shard's sub-workload query count.
	Queries int `json:"queries"`
	// Generator names the generator that won the shard's sub-plan.
	Generator string `json:"generator"`
	// Inference is the shard's chosen inference method.
	Inference string `json:"inference"`
	// ModeledCost is the shard sub-plan's modeled design cost.
	ModeledCost float64 `json:"modeledCost"`
}

// Generator is one candidate strategy family in the registry. Propose
// returns the admission decision for (w, h): a proposal, or a one-line
// rejection reason. forced reports that the caller named this generator
// explicitly — admission may then relax budget-motivated gates (e.g. the
// separation generator offers its factored pipeline only when forced,
// since principal-vectors dominates it in auto mode at scale).
type Generator interface {
	Name() string
	Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string)
}

// Decision records one generator's fate during planning; the server
// surfaces the list in /design responses.
type Decision struct {
	Generator   string  `json:"generator"`
	Admitted    bool    `json:"admitted"`
	Selected    bool    `json:"selected"`
	ModeledCost float64 `json:"modeledCost,omitempty"`
	Reason      string  `json:"reason,omitempty"`
}

// Plan is the artifact a planning run produces: everything downstream
// layers need to execute releases without re-deciding anything.
type Plan struct {
	// Generator names the winning generator.
	Generator string
	// Note is the winner's rationale.
	Note string
	// Workload is the planned workload.
	Workload *workload.Workload
	// Op is the strategy operator; a *linalg.Matrix when the strategy is
	// explicit.
	Op linalg.Operator
	// Eigenvalues of WᵀW when the winning generator computed them (they
	// feed the Thm 2 lower bound).
	Eigenvalues []float64
	// Inference is the kind of the mechanism's solver.
	Inference mm.Inference
	// Mechanism is the prepared release mechanism.
	Mechanism *mm.Mechanism
	// ModeledCost is the winner's modeled design cost.
	ModeledCost float64
	// DesignTime is the measured build time.
	DesignTime time.Duration
	// Decisions lists every generator's admission outcome.
	Decisions []Decision
	// Shards describes the per-shard sub-plans when the plan is a sharded
	// composition (generator "sharded"); nil otherwise.
	Shards []ShardInfo

	// shardPlans backs the composite error analysis of sharded plans.
	shardPlans []*Plan

	analysisCap int
	mu          sync.Mutex
	errByPair   map[mm.Privacy]float64
}

// ExpectedError returns the analytic RMSE of answering the planned
// workload with this plan's strategy at the given privacy pair (Prop. 4),
// memoized per pair. It reports 0 without error past the plan's analysis
// cap, where the O(n³) analysis is deliberately skipped. Sharded plans
// combine the per-shard analyses instead — each shard analyzes its own
// (much smaller) sub-domain, so a composite over a domain far past the
// cap still reports a real error as long as every shard affords its own
// analysis.
func (p *Plan) ExpectedError(pr mm.Privacy) (float64, error) {
	if p.shardPlans != nil {
		return p.shardedExpectedError(pr)
	}
	if p.Workload.Cells() > p.analysisCap {
		return 0, nil
	}
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.errByPair[pr]; ok {
		return e, nil
	}
	e, err := mm.Error(p.Workload, p.Op, pr)
	if err != nil {
		return 0, err
	}
	if p.errByPair == nil {
		p.errByPair = map[mm.Privacy]float64{}
	}
	p.errByPair[pr] = e
	return e, nil
}

// shardedExpectedError combines the shard plans' analyses into the
// composite RMSE. Shard i's per-query mean squared error under the
// composite noise scale is its standalone MSE rescaled by the sensitivity
// ratio (the composite calibrates one σ to the end-to-end sensitivity),
// so with Eᵢ the standalone shard error, sᵢ the shard sensitivity and s
// the composite sensitivity,
//
//	E² = Σᵢ mᵢ·(Eᵢ·s/sᵢ)² / Σᵢ mᵢ.
//
// If any shard skipped its analysis (past the analysis cap) the composite
// reports 0 (skipped) too.
func (p *Plan) shardedExpectedError(pr mm.Privacy) (float64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	p.mu.Lock()
	if e, ok := p.errByPair[pr]; ok {
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	sens := p.Mechanism.SensitivityL2()
	var sumSq float64
	var m int
	for _, sp := range p.shardPlans {
		e, err := sp.ExpectedError(pr)
		if err != nil {
			return 0, err
		}
		if e == 0 {
			return 0, nil // a shard skipped its analysis: composite skipped
		}
		si := sp.Mechanism.SensitivityL2()
		if si <= 0 {
			return 0, fmt.Errorf("planner: shard %q has zero sensitivity", sp.Generator)
		}
		mi := sp.Workload.NumQueries()
		scaled := e * sens / si
		sumSq += float64(mi) * scaled * scaled
		m += mi
	}
	if m == 0 {
		return 0, fmt.Errorf("planner: sharded plan has no queries")
	}
	e := math.Sqrt(sumSq / float64(m))
	p.mu.Lock()
	if p.errByPair == nil {
		p.errByPair = map[mm.Privacy]float64{}
	}
	p.errByPair[pr] = e
	p.mu.Unlock()
	return e, nil
}

// LowerBound returns the Thm 2 lower bound for the planned workload at
// the given pair, or 0 when the winning generator did not compute the
// workload eigenvalues.
func (p *Plan) LowerBound(pr mm.Privacy) float64 {
	if p.Eigenvalues == nil || pr.Validate() != nil {
		return 0
	}
	return mm.LowerBoundFromEigenvalues(p.Eigenvalues, p.Workload.NumQueries(), pr)
}

// Config configures a Planner. It has no fields: a plan depends only on
// its workload and hints.
type Config struct{}

// Planner holds the generator registry. It is safe for concurrent use.
type Planner struct {
	mu   sync.Mutex
	gens []Generator
	// builds counts strategy builds actually executed (successful or
	// failed), as opposed to plans rehydrated from a store. Restart tests
	// assert it stays zero on a warm server.
	builds int64
}

// New returns a planner with the default generator registry.
func New(cfg Config) *Planner {
	p := &Planner{}
	p.gens = []Generator{
		marginalsGen{},
		eigenGen{},
		separationGen{},
		principalGen{},
		hierarchicalGen{},
		identityGen{},
		&shardedGen{p: p},
	}
	return p
}

// Register appends a generator to the registry. Selection ranks by
// (Score, Cost), so registration order only breaks exact ties.
func (p *Planner) Register(g Generator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gens = append(p.gens, g)
}

// Generators returns the registered generator names in registry order.
func (p *Planner) Generators() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.gens))
	for i, g := range p.gens {
		names[i] = g.Name()
	}
	return names
}

// Builds returns how many strategy builds this planner has executed
// (rehydrated plans do not count).
func (p *Planner) Builds() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds
}

// designBudget resolves the hints into one cost bound: a MaxDesignTime
// hint converts to work units at DefaultUnitsPerSecond, and the tighter of
// it and MaxDesignCost wins.
func (h Hints) designBudget() float64 {
	b := h.MaxDesignCost
	if h.MaxDesignTime > 0 {
		tb := h.MaxDesignTime.Seconds() * DefaultUnitsPerSecond
		if b == 0 || tb < b {
			b = tb
		}
	}
	if b == 0 {
		return DefaultMaxDesignCost
	}
	return b
}

// scoredCand pairs an admitted proposal with its decision-slot index.
type scoredCand struct {
	gen  Generator
	prop *Proposal
	di   int
}

// propose runs admission for every generator (or only the forced one) and
// returns the admitted candidates in build-preference order.
func (p *Planner) propose(w *workload.Workload, h Hints) ([]scoredCand, []Decision, error) {
	p.mu.Lock()
	gens := append([]Generator(nil), p.gens...)
	p.mu.Unlock()

	if h.Generator != "" {
		for _, g := range gens {
			if g.Name() != h.Generator {
				continue
			}
			prop, reject := g.Propose(w, h, true)
			if prop == nil {
				return nil, nil, fmt.Errorf("planner: generator %q refused workload %q: %s", h.Generator, w.Name(), reject)
			}
			d := []Decision{{Generator: g.Name(), Admitted: true, ModeledCost: prop.Cost, Reason: "forced by hint: " + prop.Note}}
			return []scoredCand{{gen: g, prop: prop, di: 0}}, d, nil
		}
		return nil, nil, fmt.Errorf("planner: unknown generator %q (registered: %s)", h.Generator, strings.Join(p.Generators(), ", "))
	}

	decisions := make([]Decision, 0, len(gens))
	budget := h.designBudget()
	var admitted []scoredCand
	var cheapest *scoredCand
	for _, g := range gens {
		prop, reject := g.Propose(w, h, false)
		if prop == nil {
			decisions = append(decisions, Decision{Generator: g.Name(), Reason: reject})
			continue
		}
		di := len(decisions)
		decisions = append(decisions, Decision{Generator: g.Name(), ModeledCost: prop.Cost, Reason: prop.Note})
		c := scoredCand{gen: g, prop: prop, di: di}
		if cheapest == nil || prop.Cost < cheapest.prop.Cost {
			cc := c
			cheapest = &cc
		}
		if prop.Cost > budget {
			decisions[di].Reason = refuse("budget", "modeled cost %.3g exceeds the design budget %.3g", prop.Cost, budget)
			continue
		}
		decisions[di].Admitted = true
		admitted = append(admitted, c)
	}
	if len(admitted) == 0 {
		if cheapest == nil {
			return nil, decisions, fmt.Errorf("planner: no generator can produce a strategy for workload %q", w.Name())
		}
		// Nothing fits the budget: escalate to the cheapest candidate
		// rather than fail — a plan that is late beats no plan.
		decisions[cheapest.di].Admitted = true
		decisions[cheapest.di].Reason = fmt.Sprintf(
			"over the design budget %.3g like every candidate; selected as the cheapest escape (modeled cost %.3g)",
			budget, cheapest.prop.Cost)
		admitted = []scoredCand{*cheapest}
	}
	sort.SliceStable(admitted, func(i, j int) bool {
		//lint:allow floateq: sort tie-break — a tolerance here would make the comparator intransitive; ties fall through to cost deterministically
		if admitted[i].prop.Score != admitted[j].prop.Score {
			return admitted[i].prop.Score < admitted[j].prop.Score
		}
		return admitted[i].prop.Cost < admitted[j].prop.Cost
	})
	return admitted, decisions, nil
}

// Explain runs admission and selection without building anything: the
// returned decisions mark which generator would win. It backs the
// table-driven planner tests and diagnostic endpoints.
func (p *Planner) Explain(w *workload.Workload, h Hints) ([]Decision, error) {
	cands, decisions, err := p.propose(w, h)
	if err != nil {
		return decisions, err
	}
	decisions[cands[0].di].Selected = true
	return decisions, nil
}

// Plan picks a generator for (w, h), builds the strategy (falling back
// through the admission order when a build fails), prepares the mechanism
// with the solver mm.NewMechanism picks, and runs the error analysis when
// the domain affords it.
func (p *Planner) Plan(w *workload.Workload, h Hints) (*Plan, error) {
	cands, decisions, err := p.propose(w, h)
	if err != nil {
		return nil, err
	}
	var built *Built
	var win scoredCand
	var failures []string
	var elapsed time.Duration
	for _, c := range cands {
		// Time each build separately: a failed candidate's wasted time
		// must not pollute the winner's reported design time.
		p.mu.Lock()
		p.builds++
		p.mu.Unlock()
		start := time.Now()
		b, err := c.prop.Build()
		if err != nil {
			decisions[c.di].Reason = refuse("build", "design failed: %v", err)
			decisions[c.di].Admitted = false
			failures = append(failures, fmt.Sprintf("%s: %v", c.gen.Name(), err))
			continue
		}
		elapsed = time.Since(start)
		built, win = &b, c
		break
	}
	if built == nil {
		return nil, fmt.Errorf("planner: every admitted generator failed: %s", strings.Join(failures, "; "))
	}
	decisions[win.di].Selected = true

	// The generator may have prepared the mechanism itself (sharded
	// composites fix their own inference); the planner only reports it.
	mech := built.Prepared
	if mech == nil {
		if mech, err = mm.NewMechanism(built.Op); err != nil {
			return nil, fmt.Errorf("planner: preparing inference for generator %s: %w", win.gen.Name(), err)
		}
	}
	plan := &Plan{
		Generator:   win.gen.Name(),
		Note:        win.prop.Note,
		Workload:    w,
		Op:          built.Op,
		Eigenvalues: built.Eigenvalues,
		Inference:   mech.Inference(),
		Mechanism:   mech,
		ModeledCost: win.prop.Cost,
		DesignTime:  elapsed,
		Decisions:   decisions,
		Shards:      built.Shards,
		shardPlans:  built.ShardPlans,
		analysisCap: h.analysisCap(),
	}
	if h.Privacy.Validate() == nil {
		if _, err := plan.ExpectedError(h.Privacy); err != nil {
			return nil, fmt.Errorf("planner: error analysis: %w", err)
		}
	}
	return plan, nil
}

// PlanState is the complete persistable state of a Plan, exposing the
// unexported pieces (analysis cap, memoized per-pair errors, shard
// sub-plans) the plan-store codec needs. State snapshots it; RehydratePlan
// reassembles a Plan from a decoded snapshot.
type PlanState struct {
	Generator   string
	Note        string
	Workload    *workload.Workload
	Op          linalg.Operator
	Eigenvalues []float64
	Inference   mm.Inference
	Mechanism   *mm.Mechanism
	ModeledCost float64
	DesignTime  time.Duration
	Decisions   []Decision
	Shards      []ShardInfo
	// ShardPlans are the per-shard sub-plans of a sharded composition, in
	// shard order; nil for monolithic plans.
	ShardPlans []*Plan
	// AnalysisCap is the cell count up to which ExpectedError runs the
	// exact analysis.
	AnalysisCap int
	// ErrByPair is the memoized per-privacy-pair error analysis.
	ErrByPair map[mm.Privacy]float64
}

// State returns a snapshot of the plan for persistence. The error memo is
// copied under the plan's lock, so concurrent ExpectedError calls are
// safe; operators and the mechanism are shared, not copied (they are
// immutable after construction).
func (p *Plan) State() PlanState {
	p.mu.Lock()
	memo := make(map[mm.Privacy]float64, len(p.errByPair))
	for pr, e := range p.errByPair {
		memo[pr] = e
	}
	p.mu.Unlock()
	return PlanState{
		Generator:   p.Generator,
		Note:        p.Note,
		Workload:    p.Workload,
		Op:          p.Op,
		Eigenvalues: p.Eigenvalues,
		Inference:   p.Inference,
		Mechanism:   p.Mechanism,
		ModeledCost: p.ModeledCost,
		DesignTime:  p.DesignTime,
		Decisions:   p.Decisions,
		Shards:      p.Shards,
		ShardPlans:  p.shardPlans,
		AnalysisCap: p.analysisCap,
		ErrByPair:   memo,
	}
}

// RehydratePlan reassembles a Plan from a persisted snapshot. It
// validates the structural invariants downstream layers rely on — a
// workload, a strategy operator and a prepared mechanism must be present,
// the mechanism's inference method must match the recorded one, and a
// sharded plan must carry one sub-plan per shard.
func RehydratePlan(st PlanState) (*Plan, error) {
	if st.Workload == nil || st.Op == nil || st.Mechanism == nil {
		return nil, fmt.Errorf("planner: rehydrated plan needs a workload, a strategy operator and a mechanism")
	}
	if st.Mechanism.Inference() != st.Inference {
		return nil, fmt.Errorf("planner: rehydrated mechanism infers by %s, plan recorded %s",
			st.Mechanism.Inference(), st.Inference)
	}
	if st.Op.Cols() != st.Workload.Cells() {
		return nil, fmt.Errorf("planner: rehydrated strategy has %d cells, workload %d", st.Op.Cols(), st.Workload.Cells())
	}
	if len(st.Shards) != len(st.ShardPlans) {
		return nil, fmt.Errorf("planner: rehydrated plan has %d shard infos for %d shard plans",
			len(st.Shards), len(st.ShardPlans))
	}
	memo := make(map[mm.Privacy]float64, len(st.ErrByPair))
	for pr, e := range st.ErrByPair {
		memo[pr] = e
	}
	return &Plan{
		Generator:   st.Generator,
		Note:        st.Note,
		Workload:    st.Workload,
		Op:          st.Op,
		Eigenvalues: st.Eigenvalues,
		Inference:   st.Inference,
		Mechanism:   st.Mechanism,
		ModeledCost: st.ModeledCost,
		DesignTime:  st.DesignTime,
		Decisions:   st.Decisions,
		Shards:      st.Shards,
		shardPlans:  st.ShardPlans,
		analysisCap: st.AnalysisCap,
		errByPair:   memo,
	}, nil
}
