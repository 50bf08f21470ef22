// Package adaptivemm is a Go implementation of the adaptive matrix
// mechanism of Li & Miklau, "An Adaptive Mechanism for Accurate Query
// Answering under Differential Privacy" (VLDB 2012).
//
// Given a workload of linear counting queries over a histogram of cell
// counts, the Eigen-Design algorithm automatically selects a set of
// "strategy" queries to answer privately with the Gaussian mechanism under
// (ε,δ)-differential privacy; answers to the workload are then derived by
// least squares. The strategy adapts to the workload and typically incurs
// far less error than answering the workload directly — with no cost to
// the privacy guarantee.
//
// Typical use:
//
//	w := adaptivemm.AllRange(256)                     // the queries you care about
//	s, err := adaptivemm.Design(w)                    // adapt a strategy to them
//	p := adaptivemm.Privacy{Epsilon: 0.5, Delta: 1e-4}
//	answers, err := s.Answer(w, histogram, p, rng)    // one private release
//
// Analytic error and the Thm 2 lower bound are available without touching
// data via Error and LowerBound.
//
// # Scaling: matrix-free workloads and strategies
//
// Workloads and strategies are linear operators, not necessarily dense
// matrices. Structured builders (AllRange, Prefix, Marginals,
// RangeMarginals) return matrix-free representations — Kronecker products
// of per-dimension interval, identity and total operators — so even
// workloads whose explicit matrix would have billions of entries are fully
// answerable: AllRange(2048) has ~2.1M query rows and is answered in
// O(rows) per release without ever materializing them. There is no longer
// a hard cap on the domain sizes that can be *answered*; dense rows are
// only required by APIs that hand out explicit matrices.
//
// Strategies follow the same principle. Design on product-form workloads
// past ~1k cells keeps the eigen-structure in factored Kronecker form and
// returns a matrix-free strategy; HierarchicalStrategy and
// IdentityStrategy provide structured strategies at any scale with no
// optimization cost. The exact designs have hard admission caps (the
// dense pipeline at 4096 cells, the factored exact design at 8192 —
// past them the weighting program alone needs gigabytes) and Design
// returns an error instead of attempting the allocation; use
// DesignPrincipal or DesignAuto there, which scale to any product
// domain.
//
// # The strategy planner
//
// Every Design* entry point routes through one cost-based planner
// (shared with the amdesign CLI and the release-engine server). Design,
// DesignSeparated and DesignPrincipal pin their generator; DesignAuto
// lets the planner pick the family — the closed-form marginal designer
// for marginal sets, exact eigen design within the design budget, the
// factored principal-vector design for large product domains, or a
// structured fallback — honoring PlanHints (design-time budget,
// per-release latency target, shard cap). The plan also fixes the
// inference method explicitly: a one-time dense pseudo-inverse (small
// strategies, fastest per release) or matrix-free "cgls" (structured or
// large strategies, no O(n³) preprocessing). A matrix-free strategy with
// an exact least-squares solver — an interval tree, or a Kronecker
// product such as a hierarchical strategy over a product domain, whose
// pseudo-inverse is the Kronecker product of its factors' — is solved in
// one pass; any other runs CGLS iterations. Strategy.PlanInfo reports
// the decision.
//
// # Sharded plans
//
// Workloads that decompose into independent blocks — a marginal set
// whose attribute subsets fall into ≥2 disjoint groups, or an explicit
// block-diagonal query matrix — are planned SHARDED by default: each
// block is planned independently (blocks may win different generators),
// and the per-block designs are stitched into one composite strategy
// that releases all blocks under a single privacy budget, with noise
// calibrated to the end-to-end sensitivity and per-shard inference run
// in parallel. This is how marginal workloads on domains far past the
// monolithic design caps (e.g. 1-way marginals over 64×64 = 4096 cells,
// or disjoint marginal groups over 10⁵+ cells) keep the closed-form
// optimal design per block instead of falling back to a tree strategy.
// PlanHints.MaxShards caps or disables the split; PlanInfo.Shards
// reports the per-shard outcomes.
package adaptivemm

import (
	"fmt"
	"math/rand"
	"time"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

// Privacy bundles the differential-privacy parameters (ε, δ). δ > 0 is
// required for the Gaussian mechanism this package is built on.
type Privacy = mm.Privacy

// NoiseSource is the randomness a release draws its noise from. A
// deterministic *rand.Rand satisfies it for reproducible experiments;
// production releases should use NewCryptoNoiseSource, whose stream is
// unpredictable across processes and restarts — noise seeded from a
// counter or the clock is predictable and voids the privacy guarantee.
type NoiseSource = mm.NoiseSource

// NewCryptoNoiseSource returns a production noise source seeded from the
// operating system's CSPRNG.
func NewCryptoNoiseSource() NoiseSource { return mm.NewCryptoSeededSource() }

// Workload is a set of linear counting queries over a multi-dimensional
// histogram. Construct instances with the builders below.
type Workload = workload.Workload

// Strategy is a prepared strategy for the matrix mechanism: the strategy
// matrix together with the least-squares inference operator.
type Strategy struct {
	name string
	mech *mm.Mechanism
	// Eigenvalues of WᵀW when produced by Design; nil otherwise.
	eigenvalues []float64
	// plan is the planner artifact behind planner-built strategies; nil
	// for hand-built ones (FromRowsStrategy, DesignL1, ...).
	plan *planner.Plan
}

// Name returns a human-readable strategy label.
func (s *Strategy) Name() string { return s.name }

// Matrix returns the strategy's query matrix rows as a copy, materializing
// structured (operator) strategies when they fit the materialization cap.
// It returns an error for strategies too large to densify — matrix-free
// strategies from large domains would otherwise exhaust memory; use
// Estimate/Answer, which never materialize.
func (s *Strategy) Matrix() ([][]float64, error) {
	a, err := s.mech.StrategyDense()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, a.Rows())
	for i := range out {
		out[i] = append([]float64(nil), a.Row(i)...)
	}
	return out, nil
}

// Answer performs one (ε,δ)-differentially private release: it answers the
// strategy queries on the histogram x with Gaussian noise and derives
// consistent answers to every query of w by least squares.
func (s *Strategy) Answer(w *Workload, x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	return s.mech.AnswerGaussian(w, x, p, r)
}

// Estimate returns the differentially private estimate x̂ of the full
// histogram, from which callers can answer arbitrary linear queries
// consistently (all derived answers share the one privacy budget).
// Sharded strategies (see PlanInfo.Shards) never measure the joint
// histogram and return an error here; use Answer instead.
func (s *Strategy) Estimate(x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	if err := s.requireJointEstimate(); err != nil {
		return nil, err
	}
	return s.mech.EstimateGaussian(x, p, r)
}

// requireJointEstimate refuses the full-histogram estimate entry points
// for sharded strategies: their private estimates live on per-shard
// sub-domains, and returning the concatenation where an n-cell histogram
// is promised would silently hand callers the wrong shape.
func (s *Strategy) requireJointEstimate() error {
	if s.mech.Shards() != nil {
		return fmt.Errorf("adaptivemm: strategy %q is sharded and has no single joint histogram estimate; use Answer, or design with PlanHints{MaxShards: -1} to force a monolithic plan", s.name)
	}
	return nil
}

// Error returns the analytic root-mean-square error of answering w with
// this strategy (Prop. 4 of the paper). It does not depend on the data.
func (s *Strategy) Error(w *Workload, p Privacy) (float64, error) {
	return mm.Error(w, s.mech.Strategy(), p)
}

// defaultPlanner is the process-wide strategy planner every Design*
// entry point routes through, so the library, the CLI tools and the
// release-engine server all make strategy decisions the same way. No
// plan cache: library workloads carry no canonical identity to key one
// on (the server derives keys from its workload specs and caches there).
var defaultPlanner = planner.New(planner.Config{})

// DesignOption customizes Design by adjusting the planner hints.
type DesignOption func(*planner.Hints)

// WithFirstOrderSolver forces the scalable first-order optimizer, useful
// for very large domains.
func WithFirstOrderSolver() DesignOption {
	return func(h *planner.Hints) { h.FirstOrder = true }
}

// PlanHints are the per-request hints DesignAuto passes to the cost-based
// strategy planner. The zero value asks for the default cost-based
// choice with the planner's default budgets.
type PlanHints struct {
	// MaxDesignTime bounds how long strategy design may take; generators
	// whose modeled cost exceeds it are skipped in favor of cheaper ones
	// (down to the free hierarchical and identity strategies). Zero
	// applies the planner's default budget (roughly: exact eigen design
	// is admitted up to ~512 cells).
	MaxDesignTime time.Duration
	// LatencyTarget is the per-release latency to aim for; a target
	// tighter than the modeled iterative-inference latency makes the plan
	// buy the one-time dense pseudo-inverse when the strategy fits it.
	// Zero leaves the inference choice to representation and size.
	LatencyTarget time.Duration
	// FirstOrder forces the first-order solver in the optimizing
	// generators. The zero value lets the planner pick per design size.
	FirstOrder bool
	// MaxShards bounds how many shards the sharded generator may split a
	// workload into: 0 applies the planner's default cap (16), values
	// ≥ 2 cap the count (the smallest blocks are merged to fit), and
	// negative values disable sharding entirely.
	MaxShards int
}

// ShardInfo describes one shard of a sharded (composite) plan.
type ShardInfo struct {
	// Kind is the split family: "marginal-block" (disjoint attribute
	// groups of a marginal set) or "cell-block" (disjoint cell groups of
	// an explicit query matrix).
	Kind string
	// Attrs lists the original attribute indices the shard owns
	// (marginal blocks only; nil for cell blocks).
	Attrs []int
	// Cells is the shard's sub-domain size in cells.
	Cells int
	// Queries is the shard's sub-workload query count.
	Queries int
	// Generator names the generator that won the shard's sub-plan.
	Generator string
	// Inference is the shard's inference method ("dense-pinv" or
	// "cgls").
	Inference string
	// ModeledCost is the shard sub-plan's modeled design cost in work
	// units.
	ModeledCost float64
}

// PlanInfo reports how the planner arrived at a strategy.
type PlanInfo struct {
	// Generator names the winning strategy generator.
	Generator string
	// Note is the planner's one-line rationale.
	Note string
	// Inference is the chosen inference method ("dense-pinv", "cgls" —
	// which runs the exact tree or Kronecker solver when the strategy
	// has one — or "sharded" for composite plans that answer per shard).
	Inference string
	// ModeledCost is the winner's modeled design cost in work units
	// (roughly floating-point operations).
	ModeledCost float64
	// DesignTime is the measured design time.
	DesignTime time.Duration
	// Shards lists the per-shard designs of a sharded plan, in shard
	// order; nil for monolithic plans.
	Shards []ShardInfo
}

// PlanInfo returns the planner's report for planner-built strategies
// (Design, DesignSeparated, DesignPrincipal, DesignAuto); ok is false for
// hand-built ones.
func (s *Strategy) PlanInfo() (PlanInfo, bool) {
	if s.plan == nil {
		return PlanInfo{}, false
	}
	var shards []ShardInfo
	for _, sh := range s.plan.Shards {
		shards = append(shards, ShardInfo{
			Kind:        sh.Kind,
			Attrs:       append([]int(nil), sh.Attrs...),
			Cells:       sh.Cells,
			Queries:     sh.Queries,
			Generator:   sh.Generator,
			Inference:   sh.Inference,
			ModeledCost: sh.ModeledCost,
		})
	}
	return PlanInfo{
		Generator:   s.plan.Generator,
		Note:        s.plan.Note,
		Inference:   s.plan.Inference.String(),
		ModeledCost: s.plan.ModeledCost,
		DesignTime:  s.plan.DesignTime,
		Shards:      shards,
	}, true
}

// DesignAuto lets the cost-based planner choose the strategy family for
// the workload — exact eigen design, one of its Sec 4.2 approximations,
// the closed-form marginal designer, or a structured fallback — honoring
// the hints. It is the recommended entry point when the workload shape is
// not known in advance.
func DesignAuto(w *Workload, hints PlanHints) (*Strategy, error) {
	plan, err := defaultPlanner.Plan(w, planner.Hints{
		MaxDesignTime: hints.MaxDesignTime,
		LatencyTarget: hints.LatencyTarget,
		FirstOrder:    hints.FirstOrder,
		MaxShards:     hints.MaxShards,
	})
	if err != nil {
		return nil, err
	}
	return strategyFromPlan("Planner("+plan.Generator+")", plan), nil
}

// designForced plans with a named generator and shared hint options.
func designForced(w *Workload, name, label string, h planner.Hints, opts []DesignOption) (*Strategy, error) {
	h.Generator = name
	for _, f := range opts {
		f(&h)
	}
	plan, err := defaultPlanner.Plan(w, h)
	if err != nil {
		return nil, err
	}
	return strategyFromPlan(label, plan), nil
}

// Design runs the Eigen-Design algorithm on the workload and returns the
// adapted strategy (Program 2 of the paper). Product-form workloads past
// the planner's structured threshold run the factored matrix-free
// pipeline automatically.
func Design(w *Workload, opts ...DesignOption) (*Strategy, error) {
	return designForced(w, "eigen", "EigenDesign", planner.Hints{}, opts)
}

// DesignSeparated runs the eigen-query separation optimization (Sec 4.2):
// near-optimal strategies at a fraction of the optimization cost. A group
// size near n^(1/3) balances the two optimization phases.
func DesignSeparated(w *Workload, groupSize int, opts ...DesignOption) (*Strategy, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("adaptivemm: group size %d < 1", groupSize)
	}
	return designForced(w, "eigen-separation", "EigenDesign(separated)", planner.Hints{GroupSize: groupSize}, opts)
}

// DesignPrincipal runs the principal-vector optimization (Sec 4.2): only
// the k most significant eigen-queries receive individual weights.
func DesignPrincipal(w *Workload, k int, opts ...DesignOption) (*Strategy, error) {
	if k < 1 {
		return nil, fmt.Errorf("adaptivemm: principal vector count %d < 1", k)
	}
	return designForced(w, "principal-vectors", "EigenDesign(principal)", planner.Hints{PrincipalK: k}, opts)
}

func strategyFromPlan(label string, plan *planner.Plan) *Strategy {
	return &Strategy{name: label, mech: plan.Mechanism, eigenvalues: plan.Eigenvalues, plan: plan}
}

// HierarchicalStrategy returns the b-ary hierarchical (tree) strategy of
// Hay et al. over the given dimensions as a matrix-free operator — a
// structured strategy with no optimization cost that scales to domains far
// past what Design can optimize, and is near-optimal for range workloads.
func HierarchicalStrategy(branch int, dims ...int) (*Strategy, error) {
	if branch < 2 {
		return nil, fmt.Errorf("adaptivemm: branching factor %d < 2", branch)
	}
	shape := domain.MustShape(dims...)
	op := strategy.HierarchicalOperator(shape, branch)
	return newStrategy("Hierarchical", op, nil)
}

// IdentityStrategy returns the identity strategy (noisy cell counts) as a
// matrix-free operator at any scale.
func IdentityStrategy(dims ...int) (*Strategy, error) {
	return newStrategy("Identity", strategy.IdentityOperator(domain.MustShape(dims...)), nil)
}

func newStrategy(name string, a linalg.Operator, eigenvalues []float64) (*Strategy, error) {
	mech, err := mm.NewMechanismOp(a)
	if err != nil {
		return nil, err
	}
	return &Strategy{name: name, mech: mech, eigenvalues: eigenvalues}, nil
}

// Error computes the analytic workload error of answering w with an
// arbitrary strategy matrix (rows of strategy queries).
func Error(w *Workload, strategyRows [][]float64, p Privacy) (float64, error) {
	return mm.Error(w, linalg.NewFromRows(strategyRows), p)
}

// LowerBound returns the singular-value lower bound (Thm 2): no strategy
// can answer w with less error under the (ε,δ)-matrix mechanism.
func LowerBound(w *Workload, p Privacy) (float64, error) {
	return mm.LowerBound(w, p)
}

// --- Workload builders ---

// FromRows builds a workload from explicit query rows over a histogram
// whose dimensions are dims (their product must equal the row length).
func FromRows(name string, rows [][]float64, dims ...int) *Workload {
	return workload.FromMatrix(name, domain.MustShape(dims...), linalg.NewFromRows(rows))
}

// IdentityWorkload returns the workload of all single-cell counts.
func IdentityWorkload(dims ...int) *Workload {
	return workload.Identity(domain.MustShape(dims...))
}

// AllRange returns the workload of all axis-aligned range queries over the
// given dimensions, as a matrix-free Kronecker operator: answerable at any
// scale (AllRange(2048) has ~2.1M rows and answers in O(rows) per
// release), with the Gram matrix available analytically for error
// analysis and Design.
func AllRange(dims ...int) *Workload {
	return workload.AllRange(domain.MustShape(dims...))
}

// RandomRange samples count random range queries.
func RandomRange(count int, r *rand.Rand, dims ...int) *Workload {
	return workload.RandomRange(domain.MustShape(dims...), count, r)
}

// Prefix returns the 1-D CDF (prefix-sum) workload on n cells.
func Prefix(n int) *Workload { return workload.Prefix(n) }

// Marginals returns all k-way marginals over the given dimensions.
func Marginals(k int, dims ...int) *Workload {
	return workload.Marginals(domain.MustShape(dims...), k)
}

// RangeMarginals returns all k-way range-marginal queries (ranges over the
// margin attributes), which answer aggregations on margins directly.
func RangeMarginals(k int, dims ...int) *Workload {
	return workload.RangeMarginals(domain.MustShape(dims...), k)
}

// Predicate samples count uniformly random 0/1 predicate queries.
func Predicate(count int, r *rand.Rand, dims ...int) *Workload {
	return workload.Predicate(domain.MustShape(dims...), count, r)
}

// Union combines several workloads over the same dimensions, e.g. the
// queries of multiple users sharing one privacy budget.
func Union(name string, ws ...*Workload) *Workload { return workload.Union(name, ws...) }
