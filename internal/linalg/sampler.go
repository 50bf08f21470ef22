// Sampling the estimate instead of the measurements.
//
// For a strategy A of full column rank the least-squares estimate of
// noisy answers is x̂ = A⁺(Ax + z) = x + A⁺z. With z ~ N(0, σ²I_m) that
// is N(x, σ²(AᵀA)⁻¹), the error model of the paper's Prop. 4. So for any
// L with LLᵀ = (AᵀA)⁻¹ and g ~ N(0, I), x + σ·L·g has exactly the law of
// x̂: a release can draw the estimate's noise directly, with as many
// draws as L has columns, and skip the strategy answers and the solve.
// Three exact solvers carry such an L, built once with the solver:
//
//   - A TreeSolver of a full-rank interval forest, through its node
//     totals. eᵀAᵀAe = Σ_v w_v²·(total of e over v)², so the law
//     N(0, (AᵀA)⁻¹) of e factors over the forest: each root's total is
//     N(0, 1/τ_root) with the upward precision τ of the two-pass solve,
//     and given a node's total its children's totals are independent
//     N(0, 1/τ_child) conditioned on their sum. L draws each root total
//     and then, top down, splits each node's remaining total between
//     child i and the children after it with one draw; the last child
//     takes the remainder. That is one draw per leaf, n in all, and one
//     pass over the nodes.
//   - A KronSolver, through L = S₁ ⊗ … ⊗ S_k with SᵢSᵢᵀ = (AᵢᵀAᵢ)⁻¹ per
//     factor (a product of square roots is a square root): a tree
//     factor's own top-down root, any other factor's upper-triangular
//     Sᵢ = Rᵢ⁻ᵀ from the Cholesky factor AᵢᵀAᵢ = RᵢRᵢᵀ, dᵢ draws per
//     fiber either way. L is applied by the mode-by-mode pass
//     (modeShape.run).
//   - An EigenSolver whose Woodbury rows all have s_R² > t², through
//     L = (AᵀA)⁻¹B with BBᵀ = AᵀA = Δ + Q_Rᵀ·diag(s_R² − t²)·Q_R, so
//     B = [Δ^{1/2}, Q_Rᵀ·diag((s_R² − t²)^{1/2})] takes n + |R| draws.
//
// A rank-deficient tree or factor, a Woodbury row with s_R² ≤ t² and
// every other solver leave the release on the classic path.

package linalg

import (
	"fmt"
	"math"
)

// Sampler draws a full-rank strategy's least-squares noise directly: it
// holds an L with LLᵀ = (AᵀA)⁻¹ (see the file comment). Its methods
// allocate nothing once ws has warmed, and concurrent calls are safe
// when each brings its own workspace.
type Sampler interface {
	// Draws is the number of columns of L: the standard normal draws a
	// sampled release takes.
	Draws() int
	// SampleInto writes x + L·g into dst (both Cols long; g is Draws
	// long).
	SampleInto(dst, x, g []float64, ws *CGWorkspace)
	// CovInto writes (AᵀA)⁻¹v = LLᵀv into dst: the estimate's covariance
	// per unit of noise variance, applied to v.
	CovInto(dst, v []float64, ws *CGWorkspace)
}

// SamplerOf returns the sampler an exact solver built for its strategy,
// or nil when the solver has none: only TreeSolvers, KronSolvers and
// EigenSolvers of full-rank strategies do (see the file comment).
func SamplerOf(s LSSolver) Sampler {
	switch s := s.(type) {
	case *TreeSolver:
		if s.fullRank() {
			return s
		}
	case *KronSolver:
		if s.sampler != nil {
			return s.sampler
		}
	case *EigenSolver:
		if s.sampler != nil {
			return s.sampler
		}
	}
	return nil
}

// cholPivotTol is the smallest share of a Gram diagonal entry a Cholesky
// pivot may keep: below it the column is numerically in the span of the
// columns before it, so the factor is rank-deficient and has no root.
const cholPivotTol = 1e-10

// slabRoot is one Kronecker factor's square root S, SSᵀ = (AᵢᵀAᵢ)⁻¹,
// a dᵢ×dᵢ matrix.
type slabRoot interface {
	// rootSlab writes S applied to every column of the d×w slab g into
	// the d×w slab dst.
	rootSlab(dst, g []float64, w int, ws *CGWorkspace)
	// covSlab writes (AᵢᵀAᵢ)⁻¹ applied to every column of the d×w slab v
	// into the d×w slab dst.
	covSlab(dst, v []float64, w int, ws *CGWorkspace)
}

// kronSampler is a KronSolver's L = S₁ ⊗ … ⊗ S_k.
type kronSampler struct {
	roots []slabRoot
	shape modeShape // mode i maps dᵢ values to dᵢ
}

// newKronSampler returns the sampler of the Kronecker solver s, or nil
// when a factor is rank-deficient: tree factors take their top-down
// root, the others their triangular root.
func newKronSampler(s *KronSolver) *kronSampler {
	k := len(s.op.factors)
	ks := &kronSampler{roots: make([]slabRoot, k)}
	cells := make([]int, k)
	for i, f := range s.op.factors {
		cells[i] = f.Cols()
		if t, ok := s.solvers[i].(*TreeSolver); ok {
			if !t.fullRank() {
				return nil
			}
			ks.roots[i] = t
			continue
		}
		r, ok := newTriRoot(OperatorGram(f))
		if !ok {
			return nil
		}
		ks.roots[i] = r
	}
	ks.shape = newModeShape(cells, cells)
	return ks
}

// Draws returns Π dᵢ, the cell count.
func (k *kronSampler) Draws() int { return prod(k.shape.in) }

// SampleInto writes x + (S₁ ⊗ … ⊗ S_k)·g into dst by one mode-by-mode
// pass on the workspace's t buffer; tree roots use r.
func (k *kronSampler) SampleInto(dst, x, g []float64, ws *CGWorkspace) {
	n := k.Draws()
	if len(g) != n || len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: Kronecker sampler of %d cells given g %d, x %d, dst %d",
			n, len(g), len(x), len(dst)))
	}
	ws.t = growVec(ws.t, k.shape.scratch)
	k.shape.run(dst, g, ws.t, func(i int, out, in []float64, w int) {
		k.roots[i].rootSlab(out, in, w, ws)
	})
	addTo(dst, x)
}

// CovInto writes (⊗(AᵢᵀAᵢ)⁻¹)·v into dst, mode by mode.
func (k *kronSampler) CovInto(dst, v []float64, ws *CGWorkspace) {
	n := k.Draws()
	if len(v) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: Kronecker sampler of %d cells given v %d, dst %d", n, len(v), len(dst)))
	}
	ws.t = growVec(ws.t, k.shape.scratch)
	k.shape.run(dst, v, ws.t, func(i int, out, in []float64, w int) {
		k.roots[i].covSlab(out, in, w, ws)
	})
}

// triRoot is the upper-triangular square root U = R⁻ᵀ of a factor's
// (AᵢᵀAᵢ)⁻¹, where AᵢᵀAᵢ = RRᵀ is its Cholesky factorization:
// UUᵀ = R⁻ᵀR⁻¹ = (RRᵀ)⁻¹. u is d×d row-major; its entries below the
// diagonal are zero and never read.
type triRoot struct {
	d int
	u []float64
}

// newTriRoot returns the triangular root of the inverse of the Gram
// matrix g, or false when g is not positive definite to cholPivotTol.
func newTriRoot(g *Matrix) (*triRoot, bool) {
	c, err := FactorCholesky(g)
	if err != nil {
		return nil, false
	}
	r, d := c.l, g.rows
	for i := 0; i < d; i++ {
		if p := r.At(i, i); !(p*p > cholPivotTol*g.At(i, i)) || math.IsInf(p, 0) {
			return nil, false
		}
	}
	// Column j of R⁻¹ by forward substitution is row j of U = R⁻ᵀ.
	u := make([]float64, d*d)
	for j := 0; j < d; j++ {
		uj := u[j*d:][:d]
		uj[j] = 1 / r.At(j, j)
		for i := j + 1; i < d; i++ {
			ri := r.Row(i)
			var s float64
			for k := j; k < i; k++ {
				s += ri[k] * uj[k]
			}
			uj[i] = -s / ri[i]
		}
	}
	return &triRoot{d: d, u: u}, true
}

// rootSlab writes U·g for every column of the d×w slab g: row i of dst
// takes rows i… of g, four at a time.
func (t *triRoot) rootSlab(dst, g []float64, w int, _ *CGWorkspace) {
	d := t.d
	for i := 0; i < d; i++ {
		out, row := dst[i*w:][:w], t.u[i*d:][:d]
		v, gi := row[i], g[i*w:][:w]
		for j := range out {
			out[j] = v * gi[j]
		}
		c := i + 1
		for ; c+4 <= d; c += 4 {
			v0, v1, v2, v3 := row[c], row[c+1], row[c+2], row[c+3]
			g0, g1 := g[c*w:][:w], g[(c+1)*w:][:w]
			g2, g3 := g[(c+2)*w:][:w], g[(c+3)*w:][:w]
			for j := range out {
				out[j] += v0*g0[j] + v1*g1[j] + v2*g2[j] + v3*g3[j]
			}
		}
		for ; c < d; c++ {
			v, gc := row[c], g[c*w:][:w]
			for j := range out {
				out[j] += v * gc[j]
			}
		}
	}
}

// covSlab writes U·Uᵀ·v for every column of the d×w slab v: Uᵀ (lower
// triangular) in place from the last row up, then U from the first row
// down, so each pass reads only rows it has not yet overwritten.
func (t *triRoot) covSlab(dst, v []float64, w int, _ *CGWorkspace) {
	d := t.d
	copy(dst, v[:d*w])
	for i := d - 1; i >= 0; i-- {
		out := dst[i*w:][:w]
		ui := t.u[i*d+i]
		for j := range out {
			out[j] *= ui
		}
		for c := 0; c < i; c++ {
			a, in := t.u[c*d+i], dst[c*w:][:w]
			for j := range out {
				out[j] += a * in[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		out, row := dst[i*w:][:w], t.u[i*d:][:d]
		ui := row[i]
		for j := range out {
			out[j] *= ui
		}
		for c := i + 1; c < d; c++ {
			a, in := row[c], dst[c*w:][:w]
			for j := range out {
				out[j] += a * in[j]
			}
		}
	}
}

// fullRank reports whether the tree strategy has full column rank: its
// roots cover every cell and every leaf is a single cell, so the leaves,
// which tile the roots, number one per cell. A leaf over several cells
// makes their columns equal; an uncovered cell's column is zero.
func (t *TreeSolver) fullRank() bool {
	return t.covered && t.rows-len(t.inner) == t.cols
}

// Draws returns the cell count: one draw per leaf.
func (t *TreeSolver) Draws() int { return t.cols }

// SampleInto writes x + L·g into dst for the tree's top-down root L (see
// the file comment): node totals live in ws.r, roots take the first
// draws, each split of an internal node the next one in topological
// order, and then every cell adds its leaf's total.
func (t *TreeSolver) SampleInto(dst, x, g []float64, ws *CGWorkspace) {
	if len(g) != t.cols || len(x) != t.cols || len(dst) != t.cols {
		panic(fmt.Sprintf("linalg: tree sampler of %d cells given g %d, x %d, dst %d",
			t.cols, len(g), len(x), len(dst)))
	}
	ws.r = growVec(ws.r, t.rows)
	tot := ws.r
	for i, v := range t.roots {
		tot[v] = t.rootSD[i] * g[i]
	}
	k := len(t.roots)
	for _, v := range t.inner {
		ch0, ch1 := t.childOff[v], t.childOff[v+1]
		rem := tot[v]
		for ci := ch0; ci < ch1-1; ci++ {
			s := t.splitFrac[ci]*rem + t.splitSD[ci]*g[k]
			k++
			tot[t.childList[ci]] = s
			rem -= s
		}
		tot[t.childList[ch1-1]] = rem
	}
	x = x[:len(dst)]
	for j, v := range t.cellLeaf {
		dst[j] = x[j] + tot[v]
	}
}

// CovInto writes (AᵀA)⁻¹v into dst (see covSlab).
func (t *TreeSolver) CovInto(dst, v []float64, ws *CGWorkspace) {
	t.covSlab(dst, v, 1, ws)
}

// rootSlab writes L applied to every column of the cols×w slab g into
// the cols×w slab dst: SampleInto's passes without x, slabBlock columns
// at a time, with node totals in ws.r, one column block per node. Every
// column takes SampleInto's operations in its order. SampleInto keeps its
// own scalar pass: written as rootSlab at one column, range1d-batch ran
// 12% fewer releases per second (docs/PERFORMANCE.md).
func (t *TreeSolver) rootSlab(dst, g []float64, w int, ws *CGWorkspace) {
	if len(g) != t.cols*w || len(dst) != t.cols*w {
		panic("linalg: TreeSolver slab length mismatch")
	}
	ws.r = growVec(ws.r, t.rows*min(w, slabBlock))
	for c0 := 0; c0 < w; c0 += slabBlock {
		bw := min(slabBlock, w-c0)
		tot := func(v int) []float64 { return ws.r[v*bw:][:bw] }
		draw := func(k int) []float64 { return g[k*w+c0:][:bw] }
		for i, v := range t.roots {
			out, gi, sd := tot(v), draw(i), t.rootSD[i]
			for j := range out {
				out[j] = sd * gi[j]
			}
		}
		k := len(t.roots)
		for _, v := range t.inner {
			ch0, ch1 := t.childOff[v], t.childOff[v+1]
			rem := tot(v)
			for ci := ch0; ci < ch1-1; ci++ {
				out, gk := tot(t.childList[ci]), draw(k)
				k++
				f, sd := t.splitFrac[ci], t.splitSD[ci]
				for j := range rem {
					s := f*rem[j] + sd*gk[j]
					out[j] = s
					rem[j] -= s
				}
			}
			copy(tot(t.childList[ch1-1]), rem)
		}
		for cell, v := range t.cellLeaf {
			copy(dst[cell*w+c0:][:bw], tot(v))
		}
	}
}

// covSlab writes (AᵀA)⁻¹ applied to every column of the cols×w slab v
// as A⁺y, where y puts v[j]/w on the singleton leaf row of cell j and
// zero elsewhere, so that Aᵀy = v. y lives in the workspace's q buffer.
func (t *TreeSolver) covSlab(dst, v []float64, w int, ws *CGWorkspace) {
	ws.q = growVec(ws.q, t.rows*w)
	y := ws.q
	clear(y)
	for n := 0; n < t.rows; n++ {
		if t.childOff[n] != t.childOff[n+1] {
			continue
		}
		out, in, inv := y[t.row[n]*w:][:w], v[t.lo[n]*w:][:w], t.invW[n]
		for j := range out {
			out[j] = in[j] * inv
		}
	}
	t.solveSlab(dst, y, w, ws)
}

// eigenSampler is an EigenSolver's L = (AᵀA)⁻¹B with
// B = [Δ^{1/2}, Q_Rᵀ·diag((s_R² − t²)^{1/2})].
type eigenSampler struct {
	s     *EigenSolver
	sqrtD []float64 // Δ^{1/2}
	invW  []float64 // (s_R² − t²)^{-1/2}
}

// Draws returns n + |R|.
func (e *eigenSampler) Draws() int { return len(e.sqrtD) + len(e.invW) }

// SampleInto writes x + (AᵀA)⁻¹·B·g into dst. With s = Δ^{1/2}g₁ and
// h = diag((s_R² − t²)^{1/2})g₂, Bg = s + ΔUᵀh, and the Woodbury form
// of (AᵀA)⁻¹ folds to Δ⁻¹s − Uᵀ·C⁻¹·(U·s − g₂/(s_R² − t²)^{1/2}), since
// C − UΔUᵀ = diag(1/(s_R² − t²)). That is two |R|×n products; s is
// built in dst.
func (e *eigenSampler) SampleInto(dst, x, g []float64, ws *CGWorkspace) {
	n, k := len(e.sqrtD), len(e.invW)
	if len(g) != n+k || len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: eigen sampler of %d draws and %d cells given g %d, x %d, dst %d",
			n+k, n, len(g), len(x), len(dst)))
	}
	g1, g2 := g[:n], g[n:]
	for j, v := range e.sqrtD {
		dst[j] = v * g1[j]
	}
	ws.t = growVec(ws.t, 2*k)
	z, c := ws.t[:k], ws.t[k:]
	e.s.uTimes(z, dst)
	for a, v := range e.invW {
		z[a] -= g2[a] * v
	}
	e.s.cinv.mulRows(c, z, 0, k)
	for j, d := range e.s.dinv {
		dst[j] = x[j] + d*dst[j]
	}
	e.s.subUT(dst, c)
}

// CovInto writes (AᵀA)⁻¹v into dst through the Woodbury form.
func (e *eigenSampler) CovInto(dst, v []float64, ws *CGWorkspace) {
	copy(dst, v)
	e.s.applyInverse(dst, ws)
}
