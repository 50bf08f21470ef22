package planner

import (
	"fmt"
	"math"

	"adaptivemm/internal/core"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

// This file holds the default generator registry. Each generator couples
// an admission rule with a modeled design cost (work units ≈ floating
// point operations) and an error rank (Proposal.Score) drawn from the
// paper's comparative analysis:
//
//	0 marginals          closed form, provably meets the Thm 2 bound
//	1 eigen              exact Program 2 (near-optimal, Thm 3 cap)
//	2 eigen-separation   Sec 4.2 grouping, slightly above exact
//	3 principal-vectors  Sec 4.2 k-weight reduction, above separation
//	4 hierarchical       Hay et al. tree, near-optimal on ranges only
//	5 identity           noisy counts, the universal fallback
//
// Cost-model constants: a pure-Go symmetric eigendecomposition or
// weighting solve is modeled at ~20·n³ units; per-iteration solver work
// at ~30 units per touched entry. The absolute scale only matters
// relative to the budget (DefaultMaxDesignCost admits exact eigen up to
// ~512 cells).

// refuse builds a rejection reason tagged with the named admission rule,
// so /design explain output pairs every refused candidate with the
// specific rule that failed (the Decision already carries the public
// generator name). Rules in the default registry: shape (workload
// representation), dims, size-cap (domain too large for the family's
// algebra), regime (another family dominates here), hint, min-cells,
// block-count, shard-admission, monolithic-dominates, budget, build.
func refuse(rule, format string, args ...any) string {
	return "rule " + rule + ": " + fmt.Sprintf(format, args...)
}

func cube(n int) float64 { f := float64(n); return f * f * f }

// denseCubeCost models one O(n³) dense stage (eigendecomposition, or a
// weighting program over n variables).
func denseCubeCost(n int) float64 { return 20 * cube(n) }

// factorCubesCost models the per-dimension eigendecompositions of the
// factored pipeline.
func factorCubesCost(w *workload.Workload) float64 {
	factors, ok := w.GramFactors()
	if !ok {
		return math.Inf(1)
	}
	var s float64
	for _, f := range factors {
		s += denseCubeCost(f.Rows())
	}
	return s
}

// factoredAdmission reports whether the factored pipeline is the one to
// use: eligible product form past the structured threshold. This is the
// admission rule that used to live in core as StructuredThreshold.
func factoredAdmission(w *workload.Workload) bool {
	return core.FactoredEligible(w) && w.Cells() > StructuredThreshold
}

// PipelineFor exposes the admission rule to callers that drive core
// directly (the experiment harness): the core pipeline the planner would
// select for an eigen-family design on w.
func PipelineFor(w *workload.Workload) core.Pipeline {
	if factoredAdmission(w) {
		return core.PipelineFactored
	}
	return core.PipelineDense
}

// solverName names the weighting solver core runs for a program over vars
// variables under h.
func solverName(h Hints, vars int) string {
	if core.UsesFirstOrder(coreOptions(h, false).Solver, vars) {
		return "first-order"
	}
	return "barrier"
}

func coreOptions(h Hints, factored bool) core.Options {
	o := core.Options{}
	if factored {
		o.Pipeline = core.PipelineFactored
	}
	if h.FirstOrder {
		o.Solver = core.SolverFirstOrder
	}
	return o
}

// --- marginals: the closed-form optimal designer for marginal sets ---

type marginalsGen struct{}

func (marginalsGen) Name() string { return "marginals" }

func (marginalsGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	subsets, ok := w.MarginalSubsets()
	if !ok {
		return nil, refuse("shape", "workload is not a plain marginal set (no marginal-subset metadata)")
	}
	dims := w.Shape().Dims()
	if dims > 30 {
		return nil, refuse("dims", "%d dimensions exceed the subset-mask limit of 30", dims)
	}
	n := w.Cells()
	if n > MediumCellCap {
		return nil, refuse("size-cap", "dense marginal strategy needs ≤ %d cells, workload has %d", MediumCellCap, n)
	}
	cost := float64(n)*float64(n) + math.Exp2(float64(dims))*float64(n)
	return &Proposal{
		Cost:  cost,
		Score: 0,
		Note:  "closed-form marginal design: provably optimal (meets the Thm 2 bound), no O(n³) work",
		Build: func() (Built, error) {
			res, err := core.DesignMarginals(w.Shape(), subsets)
			if err != nil {
				return Built{}, err
			}
			return Built{Op: res.Strategy, Eigenvalues: res.Eigenvalues}, nil
		},
	}, ""
}

// --- eigen: the exact Eigen-Design (Program 2) ---

type eigenGen struct{}

func (eigenGen) Name() string { return "eigen" }

func (eigenGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	n := w.Cells()
	factored := factoredAdmission(w)
	var cost float64
	var note string
	if factored {
		if n > FactoredExactCellCap {
			return nil, refuse("size-cap", "exact factored design streams an n×n constraint matrix; %d cells past the %d cap (principal-vectors covers this regime)", n, FactoredExactCellCap)
		}
		cost = factorCubesCost(w) + 2*denseCubeCost(n)
		note = fmt.Sprintf("exact Program 2 on the factored Kronecker eigenbasis (solver: %s)", solverName(h, n))
	} else {
		if n > MediumCellCap {
			return nil, refuse("size-cap", "dense pipeline needs ≤ %d cells (O(n³) algebra), workload has %d", MediumCellCap, n)
		}
		cost = 2 * denseCubeCost(n)
		note = fmt.Sprintf("exact Program 2 on the dense eigenbasis (solver: %s)", solverName(h, n))
	}
	return &Proposal{
		Cost:  cost,
		Score: 1,
		Note:  note,
		Build: func() (Built, error) {
			res, err := core.Design(w, coreOptions(h, factored))
			if err != nil {
				return Built{}, err
			}
			return Built{Op: res.Op, Eigenvalues: res.Eigenvalues}, nil
		},
	}, ""
}

// --- eigen-separation: Sec 4.2 grouped weighting ---

type separationGen struct{}

func (separationGen) Name() string { return "eigen-separation" }

func (separationGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	n := w.Cells()
	g := h.GroupSize
	if g <= 0 {
		g = int(math.Max(2, math.Round(math.Cbrt(float64(n)))))
	}
	factored := factoredAdmission(w)
	if factored && !forced {
		// The second separation phase optimizes n/g ≈ n^⅔ variables — not
		// the scalable factored design. Auto mode leaves this regime to
		// principal-vectors; an explicit hint still gets it.
		return nil, refuse("regime", "factored separation's second phase keeps n^⅔ variables; principal-vectors is the scalable choice here (force eigen-separation to override)")
	}
	var cost float64
	if factored {
		cost = factorCubesCost(w) + 30*float64(g)*float64(n)*float64(n)
	} else {
		if n > MediumCellCap {
			return nil, refuse("size-cap", "dense pipeline needs ≤ %d cells (O(n³) algebra), workload has %d", MediumCellCap, n)
		}
		cost = denseCubeCost(n) + 30*float64(g)*float64(n)*float64(n)
	}
	return &Proposal{
		Cost:  cost,
		Score: 2,
		Note:  fmt.Sprintf("eigen-query separation with group size %d (Sec 4.2): near-exact error at a fraction of the weighting cost", g),
		Build: func() (Built, error) {
			res, err := core.EigenSeparation(w, g, coreOptions(h, factored))
			if err != nil {
				return Built{}, err
			}
			return Built{Op: res.Op, Eigenvalues: res.Eigenvalues}, nil
		},
	}, ""
}

// --- principal-vectors: Sec 4.2 k-weight reduction ---

// defaultPrincipalK is the weighted eigen-query count when no hint sets
// one — the value the server's escalation ladder used.
const defaultPrincipalK = 16

type principalGen struct{}

func (principalGen) Name() string { return "principal-vectors" }

func (principalGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	n := w.Cells()
	k := h.PrincipalK
	if k <= 0 {
		k = defaultPrincipalK
	}
	factored := factoredAdmission(w)
	var cost float64
	var note string
	if factored {
		cost = factorCubesCost(w) + 30*float64(k)*float64(k)*float64(n) + denseCubeCost(k)
		note = fmt.Sprintf("factored principal-vector design, k=%d: per-dimension eigendecompositions only, k+1 weight variables regardless of n", k)
	} else {
		if n > MediumCellCap {
			return nil, refuse("size-cap", "dense pipeline needs ≤ %d cells (O(n³) algebra), workload has %d", MediumCellCap, n)
		}
		cost = denseCubeCost(n) + 30*float64(k)*float64(k)*float64(n)
		note = fmt.Sprintf("principal-vector design, k=%d (Sec 4.2)", k)
	}
	return &Proposal{
		Cost:  cost,
		Score: 3,
		Note:  note,
		Build: func() (Built, error) {
			res, err := core.PrincipalVectors(w, k, coreOptions(h, factored))
			if err != nil {
				return Built{}, err
			}
			return Built{Op: res.Op, Eigenvalues: res.Eigenvalues}, nil
		},
	}, ""
}

// --- hierarchical: the Hay et al. tree strategy ---

type hierarchicalGen struct{}

func (hierarchicalGen) Name() string { return "hierarchical" }

func (hierarchicalGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	n := w.Cells()
	return &Proposal{
		Cost:  4 * float64(n),
		Score: 4,
		Note:  "2-ary hierarchical strategy (Hay et al.): no optimization cost, near-optimal for range workloads, full rank at any scale",
		Build: func() (Built, error) {
			return Built{Op: strategy.HierarchicalOperator(w.Shape(), 2)}, nil
		},
	}, ""
}

// --- identity: noisy cell counts, the universal fallback ---

type identityGen struct{}

func (identityGen) Name() string { return "identity" }

func (identityGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	return &Proposal{
		Cost:  1,
		Score: 5,
		Note:  "identity strategy (noisy cell counts): O(1) memory, supports every workload",
		Build: func() (Built, error) {
			return Built{Op: strategy.IdentityOperator(w.Shape())}, nil
		},
	}, ""
}
