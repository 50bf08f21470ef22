package core

import (
	"errors"
	"fmt"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/opt"
	"adaptivemm/internal/workload"
)

// EigenSeparation runs the eigen-query separation optimization of Sec 4.2:
// the eigen-queries are partitioned by descending eigenvalue into groups of
// groupSize; Program 1 is solved within each group independently, and a
// second optimization assigns one scale factor per group. Both phases are
// instances of the same weighting program, so the asymptotic cost drops to
// O(n²·g³ + n·(n/g)³), minimized near g = n^{1/3}.
func EigenSeparation(w *workload.Workload, groupSize int, o Options) (*Result, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("core: group size %d < 1", groupSize)
	}
	if o.Pipeline == PipelineFactored {
		fe, err := factoredEigen(w, o)
		if err != nil {
			return nil, err
		}
		return separationFactored(fe, groupSize, o)
	}
	eg, err := gramEigen(w)
	if err != nil {
		return nil, err
	}
	sigma := clampNonNegative(eg.Values)
	n := len(sigma)

	// Indices of design queries that survive the rank cutoff, in descending
	// eigenvalue order (already sorted by SymEigen).
	kept := keptIndices(sigma)
	if len(kept) == 0 {
		return nil, errors.New("core: workload has no information (all eigenvalues zero)")
	}

	// Phase 1: per-group weighting. Constraints use only the group's own
	// rows, which is Program 1 with the other eigenvalues set to zero.
	u := make([]float64, n)
	type group struct {
		idx []int
	}
	var groups []group
	for at := 0; at < len(kept); at += groupSize {
		end := at + groupSize
		if end > len(kept) {
			end = len(kept)
		}
		groups = append(groups, group{idx: kept[at:end]})
	}
	for _, g := range groups {
		qg := subRows(eg.Vectors, g.idx)
		cg := subVals(sigma, g.idx)
		ug, err := solveWeighting(qg, cg, o)
		if err != nil {
			return nil, err
		}
		for r, i := range g.idx {
			u[i] = ug[r]
		}
	}

	// Phase 2: one scale factor per group. With v_g the squared group
	// scale, column norms add as Σ_g v_g·(B_gᵀ u_g)_j and the trace term is
	// Σ_g (Σ_{i∈g} σᵢ/u_i)/v_g — again the same program shape.
	bRows := linalg.New(len(groups), w.Cells())
	cGroups := make([]float64, len(groups))
	l1 := o.L1
	for gi, g := range groups {
		row := bRows.Row(gi)
		var cost float64
		for _, i := range g.idx {
			qi := eg.Vectors.Row(i)
			for j, qv := range qi {
				if l1 {
					row[j] += abs(qv) * u[i]
				} else {
					row[j] += qv * qv * u[i]
				}
			}
			cost += sigma[i] / ipowLocal(u[i], powerFor(l1))
		}
		cGroups[gi] = cost
	}
	prog := &opt.Program{C: cGroups, B: bRows, Power: powerFor(l1)}
	v, err := solveProgram(prog, o.Solver)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		for _, i := range g.idx {
			u[i] *= v[gi]
		}
	}

	res, err := assemble(eg.Vectors, u, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

// PrincipalVectors runs the principal-vector optimization of Sec 4.2: only
// the k eigen-queries with the largest eigenvalues get individual weights;
// all remaining eigen-queries with nonzero eigenvalues share one common
// weight, reducing the optimization to k+1 variables.
func PrincipalVectors(w *workload.Workload, k int, o Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: principal vector count %d < 1", k)
	}
	if o.Pipeline == PipelineFactored {
		fe, err := factoredEigen(w, o)
		if err != nil {
			return nil, err
		}
		return principalFactored(fe, k, o)
	}
	eg, err := gramEigen(w)
	if err != nil {
		return nil, err
	}
	sigma := clampNonNegative(eg.Values)
	kept := keptIndices(sigma)
	if len(kept) == 0 {
		return nil, errors.New("core: workload has no information (all eigenvalues zero)")
	}
	if k >= len(kept) {
		// Nothing to share; fall through to the exact algorithm over the
		// kept eigen-queries.
		return Design(w, o)
	}
	principal := kept[:k]
	rest := kept[k:]

	// Build the reduced program: one row per principal vector plus a single
	// aggregated row for the shared tail.
	l1 := o.L1
	b := linalg.New(k+1, w.Cells())
	c := make([]float64, k+1)
	for r, i := range principal {
		row := b.Row(r)
		qi := eg.Vectors.Row(i)
		for j, qv := range qi {
			if l1 {
				row[j] = abs(qv)
			} else {
				row[j] = qv * qv
			}
		}
		c[r] = sigma[i]
	}
	tail := b.Row(k)
	var tailCost float64
	for _, i := range rest {
		qi := eg.Vectors.Row(i)
		for j, qv := range qi {
			if l1 {
				tail[j] += abs(qv)
			} else {
				tail[j] += qv * qv
			}
		}
		tailCost += sigma[i]
	}
	c[k] = tailCost

	prog := &opt.Program{C: c, B: b, Power: powerFor(l1)}
	sol, err := solveProgram(prog, o.Solver)
	if err != nil {
		return nil, err
	}

	u := make([]float64, len(sigma))
	for r, i := range principal {
		u[i] = sol[r]
	}
	for _, i := range rest {
		u[i] = sol[k]
	}
	res, err := assemble(eg.Vectors, u, o)
	if err != nil {
		return nil, err
	}
	res.Eigenvalues = sigma
	return res, nil
}

func keptIndices(sigma []float64) []int {
	var maxS float64
	for _, v := range sigma {
		if v > maxS {
			maxS = v
		}
	}
	var kept []int
	for i, v := range sigma {
		if v > rankTol*maxS {
			kept = append(kept, i)
		}
	}
	return kept
}

func subRows(m *linalg.Matrix, idx []int) *linalg.Matrix {
	out := linalg.New(len(idx), m.Cols())
	for r, i := range idx {
		copy(out.Row(r), m.Row(i))
	}
	return out
}

func subVals(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for r, i := range idx {
		out[r] = v[i]
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func ipowLocal(x float64, p int) float64 {
	if p == 2 {
		return x * x
	}
	return x
}
