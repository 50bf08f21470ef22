// Exact linear-time least squares for interval-tree strategies.
//
// The hierarchical strategies of Hay et al. — and any strategy whose rows
// are constant-weight contiguous intervals forming a laminar partition
// forest — admit a closed-form least-squares solve: the measurement graph
// is a tree over interval sums, so two passes of Gaussian belief
// propagation (a weighted generalization of the consistency step in Hay
// et al.'s hierarchical mechanism) compute the exact minimum-norm
// least-squares estimate in O(rows + cells), versus O(iters · nnz) for
// CGLS. On the release hot path this is the difference between ~100
// matvec sweeps and one.
//
// NewTreeSolver recognizes the structure at mechanism-construction time
// directly from the CSR form — no new operator kind, no codec change, so
// plans rehydrated from the store accelerate automatically — and refuses
// anything it cannot prove tree-shaped, leaving those to CGLS.

package linalg

import (
	"math"
	"sort"
)

// TreeSolver solves min ‖Ax − y‖₂ exactly for an interval-tree strategy
// A, returning the minimum-norm solution (matching PseudoInverse and the
// CGLS limit). All y-independent quantities — the forest topology, node
// precisions, and the upward/downward fusion coefficients — are
// precomputed at construction, so a solve is two linear passes with no
// divisions and no allocation beyond one workspace vector.
//
// Nodes are renumbered into topological order (parents before children)
// at construction: every per-node array below is indexed by topological
// position, so the two passes stream through memory instead of chasing a
// permutation, and row holds each node's original strategy row for y and
// answer indexing.
type TreeSolver struct {
	rows, cols int
	row        []int     // node -> original strategy row
	lo, hi     []int     // inclusive cell interval per node
	w          []float64 // constant row weight
	childOff   []int     // len rows+1: children of v are childList[childOff[v]:childOff[v+1]]
	childList  []int     // child node ids (always > their parent's id)
	childGain  []float64 // downward gain per child, aligned with childList
	invW       []float64 // leaves: 1/w
	invLen     []float64 // leaves: 1/interval length
	coefA      []float64 // internal: w/τ
	coefB      []float64 // internal: τ_children/τ
	covered    bool      // the root intervals tile every cell
}

// NewTreeSolver inspects an operator and returns an exact solver when the
// operator is a CSR matrix whose rows are constant-valued contiguous
// intervals forming a laminar forest in which every parent's interval is
// exactly tiled by its children. NormedOp wrappers are looked through.
// The second result is false when the structure does not hold.
func NewTreeSolver(op Operator) (*TreeSolver, bool) {
	s, ok := unwrapNormed(op).(*Sparse)
	if !ok || s.rows == 0 {
		return nil, false
	}
	lo := make([]int, s.rows)
	hi := make([]int, s.rows)
	w := make([]float64, s.rows)
	// Every row must be one constant-valued contiguous interval.
	for i := 0; i < s.rows; i++ {
		a, b := s.rowPtr[i], s.rowPtr[i+1]
		if b == a {
			return nil, false
		}
		v := s.val[a]
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		prev := s.colIdx[a]
		for k := a + 1; k < b; k++ {
			//lint:allow floateq: structural detection — the exact-tree fast path applies only to bit-identical range-sum coefficients; near-equal rows must take the general solver
			if s.colIdx[k] != prev+1 || s.val[k] != v {
				return nil, false
			}
			prev = s.colIdx[k]
		}
		lo[i], hi[i], w[i] = s.colIdx[a], prev, v
	}
	// Sorted by (lo asc, hi desc), containment nests: a stack sweep
	// assigns each row its tightest enclosing row as parent and rejects
	// crossing intervals. Duplicate intervals chain (one becomes the
	// other's only child), which the fusion handles exactly. The sorted
	// order is also the topological numbering the solver runs in.
	order := make([]int, s.rows)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if lo[i] != lo[j] {
			return lo[i] < lo[j]
		}
		return hi[i] > hi[j]
	})
	t := &TreeSolver{
		rows: s.rows,
		cols: s.cols,
		row:  order,
		lo:   make([]int, s.rows),
		hi:   make([]int, s.rows),
		w:    make([]float64, s.rows),
	}
	for k, v := range order {
		t.lo[k], t.hi[k], t.w[k] = lo[v], hi[v], w[v]
	}
	// parent[k] in topological ids; roots keep -1.
	parent := make([]int, s.rows)
	counts := make([]int, s.rows+1)
	stack := make([]int, 0, 64)
	rootCells := 0
	for k := 0; k < s.rows; k++ {
		for len(stack) > 0 && t.hi[stack[len(stack)-1]] < t.lo[k] {
			stack = stack[:len(stack)-1]
		}
		parent[k] = -1
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if t.hi[k] > t.hi[top] {
				return nil, false // crossing intervals
			}
			parent[k] = top
			counts[top+1]++
		} else {
			rootCells += t.hi[k] - t.lo[k] + 1
		}
		stack = append(stack, k)
	}
	// Root intervals are disjoint, so they tile the domain exactly when
	// their lengths sum to it; then the leaf-spread pass writes every
	// cell and the solve can skip zeroing the estimate.
	t.covered = rootCells == s.cols
	// Group children per parent, preserving topological (lo) order.
	t.childOff = counts
	for v := 0; v < s.rows; v++ {
		t.childOff[v+1] += t.childOff[v]
	}
	t.childList = make([]int, t.childOff[s.rows])
	fill := make([]int, s.rows)
	copy(fill, t.childOff[:s.rows])
	for k := 0; k < s.rows; k++ {
		if p := parent[k]; p >= 0 {
			t.childList[fill[p]] = k
			fill[p]++
		}
	}
	// Every internal node's children must tile its interval exactly:
	// partial coverage would introduce unmeasured implicit leaves the
	// two-pass fusion does not model.
	for v := 0; v < s.rows; v++ {
		c0, c1 := t.childOff[v], t.childOff[v+1]
		if c0 == c1 {
			continue
		}
		at := t.lo[v]
		for _, c := range t.childList[c0:c1] {
			if t.lo[c] != at {
				return nil, false
			}
			at = t.hi[c] + 1
		}
		if at != t.hi[v]+1 {
			return nil, false
		}
	}
	// Precompute node precisions τ and fusion coefficients. For a leaf,
	// the interval-sum estimate is y/w with precision τ = w². For an
	// internal node, the children's sum has precision τ_c = 1/Σ(1/τ_child)
	// and fuses with the node's own measurement:
	//   τ = w² + τ_c,  u = (w·y + τ_c·Σ u_child)/τ.
	// The downward pass distributes the surplus of the parent's final
	// estimate over children proportionally to their variance:
	//   gain_child = (1/τ_child)/Σ(1/τ_child).
	tau := make([]float64, s.rows)
	t.invW = make([]float64, s.rows)
	t.invLen = make([]float64, s.rows)
	t.coefA = make([]float64, s.rows)
	t.coefB = make([]float64, s.rows)
	t.childGain = make([]float64, len(t.childList))
	for v := s.rows - 1; v >= 0; v-- {
		c0, c1 := t.childOff[v], t.childOff[v+1]
		if c0 == c1 {
			tau[v] = t.w[v] * t.w[v]
			t.invW[v] = 1 / t.w[v]
			t.invLen[v] = 1 / float64(t.hi[v]-t.lo[v]+1)
			continue
		}
		var invSum float64
		for _, c := range t.childList[c0:c1] {
			invSum += 1 / tau[c]
		}
		tauC := 1 / invSum
		tau[v] = t.w[v]*t.w[v] + tauC
		if math.IsNaN(tau[v]) || math.IsInf(tau[v], 0) || tau[v] <= 0 {
			return nil, false
		}
		t.coefA[v] = t.w[v] / tau[v]
		t.coefB[v] = tauC / tau[v]
		for ci := c0; ci < c1; ci++ {
			t.childGain[ci] = (1 / tau[t.childList[ci]]) / invSum
		}
	}
	return t, true
}

// Rows returns the strategy's row (measurement) count.
func (t *TreeSolver) Rows() int { return t.rows }

// Cols returns the strategy's column (cell) count.
func (t *TreeSolver) Cols() int { return t.cols }

// SolveLSInto writes the exact minimum-norm least-squares solution of
// min ‖Ax − y‖₂ into dst (length Cols). ws provides the single node-sized
// workspace vector; the call performs no allocation once ws has warmed,
// and never fails.
func (t *TreeSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	if len(y) != t.rows {
		panic("linalg: TreeSolver rhs length mismatch")
	}
	if len(dst) != t.cols {
		panic("linalg: TreeSolver dst length mismatch")
	}
	ws.r = growVec(ws.r, t.rows)
	u := ws.r
	// Upward: fuse each node's own measurement with its children's sum.
	for v := t.rows - 1; v >= 0; v-- {
		c0, c1 := t.childOff[v], t.childOff[v+1]
		if c0 == c1 {
			u[v] = y[t.row[v]] * t.invW[v]
			continue
		}
		var sumU float64
		for _, c := range t.childList[c0:c1] {
			sumU += u[c]
		}
		u[v] = t.coefA[v]*y[t.row[v]] + t.coefB[v]*sumU
	}
	// Downward: condition children on the parent's final estimate. u[v]
	// is final once v is visited (roots keep their upward value), and
	// each child is overwritten only after the parent's surplus is known.
	for v := 0; v < t.rows; v++ {
		c0, c1 := t.childOff[v], t.childOff[v+1]
		if c0 == c1 {
			continue
		}
		var sumU float64
		for _, c := range t.childList[c0:c1] {
			sumU += u[c]
		}
		corr := u[v] - sumU
		for ci := c0; ci < c1; ci++ {
			u[t.childList[ci]] += t.childGain[ci] * corr
		}
	}
	// Leaves carry the cell estimates: spread each leaf's interval sum
	// evenly (the minimum-norm completion). Cells under no root are
	// unmeasured; minimum norm leaves them at zero (when the roots tile
	// the whole domain the leaf writes cover dst and zeroing is skipped).
	if !t.covered {
		for j := range dst {
			dst[j] = 0
		}
	}
	for v := 0; v < t.rows; v++ {
		if t.childOff[v] != t.childOff[v+1] {
			continue
		}
		val := u[v] * t.invLen[v]
		for j := t.lo[v]; j <= t.hi[v]; j++ {
			dst[j] = val
		}
	}
	return nil
}

// solveSlab writes the solution for every column of the rows×w slab y
// into the cols×w slab dst: the two passes of SolveLSInto run over rows
// of slabBlock columns at a time, so ws.r grows by one column block per
// node, not by the slab. Every column takes SolveLSInto's operations in
// its order (bit-identical results).
func (t *TreeSolver) solveSlab(dst, y []float64, w int, ws *CGWorkspace) {
	if len(y) != t.rows*w || len(dst) != t.cols*w {
		panic("linalg: TreeSolver slab length mismatch")
	}
	ws.r = growVec(ws.r, (t.rows+1)*min(w, slabBlock))
	if !t.covered {
		clear(dst)
	}
	for c0 := 0; c0 < w; c0 += slabBlock {
		bw := min(slabBlock, w-c0)
		t.solveBlock(dst, y, w, c0, ws.r[:(t.rows+1)*bw])
	}
}

// solveBlock solves columns [c0, c0+bw) of the slab, where bw is
// len(buf)/(rows+1): node v's values sit at buf[v·bw:(v+1)·bw] and the
// last bw values hold sums over children.
func (t *TreeSolver) solveBlock(dst, y []float64, w, c0 int, buf []float64) {
	bw := len(buf) / (t.rows + 1)
	sum := buf[t.rows*bw:]
	// Upward: fuse each node's own measurement with its children's sum.
	for v := t.rows - 1; v >= 0; v-- {
		u, yv := buf[v*bw:][:len(sum)], y[t.row[v]*w+c0:][:len(sum)]
		ch0, ch1 := t.childOff[v], t.childOff[v+1]
		if ch0 == ch1 {
			inv := t.invW[v]
			for j := range sum {
				u[j] = yv[j] * inv
			}
			continue
		}
		t.sumChildren(sum, buf, ch0, ch1)
		a, b := t.coefA[v], t.coefB[v]
		for j := range sum {
			u[j] = a*yv[j] + b*sum[j]
		}
	}
	// Downward: condition children on the parent's final estimate; sum
	// turns into the parent's surplus.
	for v := 0; v < t.rows; v++ {
		ch0, ch1 := t.childOff[v], t.childOff[v+1]
		if ch0 == ch1 {
			continue
		}
		t.sumChildren(sum, buf, ch0, ch1)
		u := buf[v*bw:][:len(sum)]
		for j := range sum {
			sum[j] = u[j] - sum[j]
		}
		for ci := ch0; ci < ch1; ci++ {
			g, uc := t.childGain[ci], buf[t.childList[ci]*bw:][:len(sum)]
			for j := range sum {
				uc[j] += g * sum[j]
			}
		}
	}
	// Leaves spread their interval sums over their cells.
	for v := 0; v < t.rows; v++ {
		if t.childOff[v] != t.childOff[v+1] {
			continue
		}
		u, inv := buf[v*bw:][:len(sum)], t.invLen[v]
		for cell := t.lo[v]; cell <= t.hi[v]; cell++ {
			d := dst[cell*w+c0:][:len(sum)]
			for j := range sum {
				d[j] = u[j] * inv
			}
		}
	}
}

// sumChildren leaves the sum of the block values of the children
// childList[ch0:ch1] in sum, added in child order from zero as
// SolveLSInto adds them.
func (t *TreeSolver) sumChildren(sum, buf []float64, ch0, ch1 int) {
	clear(sum)
	for _, c := range t.childList[ch0:ch1] {
		uc := buf[c*len(sum):][:len(sum)]
		for j := range sum {
			sum[j] += uc[j]
		}
	}
}

// AnswerInto writes the strategy answers A·x into dst (length Rows) in
// O(rows + cells): leaf sums from the cells, internal sums from children,
// one reverse-topological pass. It is the matvec fast path paired with
// SolveLSInto on the release hot path.
func (t *TreeSolver) AnswerInto(dst, x []float64, ws *CGWorkspace) {
	if len(x) != t.cols {
		panic("linalg: TreeSolver input length mismatch")
	}
	if len(dst) != t.rows {
		panic("linalg: TreeSolver dst length mismatch")
	}
	ws.r = growVec(ws.r, t.rows)
	sum := ws.r
	for v := t.rows - 1; v >= 0; v-- {
		c0, c1 := t.childOff[v], t.childOff[v+1]
		var s float64
		if c0 == c1 {
			for j := t.lo[v]; j <= t.hi[v]; j++ {
				s += x[j]
			}
		} else {
			for _, c := range t.childList[c0:c1] {
				s += sum[c]
			}
		}
		sum[v] = s
		dst[t.row[v]] = t.w[v] * s
	}
}
