// Exact least squares for factored eigen-design strategies whose weights
// leave all but a few eigen-queries on one shared scale.
//
// The factored eigen-design pipeline assembles the strategy
//
//	A = [ diag(s)·P·V ; D ],   V = V₁ ⊗ … ⊗ V_k,
//
// with every Vᵢ orthogonal, P a full row permutation and D optional
// completion rows of one entry each. PV is orthogonal, so for any t
//
//	AᵀA = t²I + DᵀD + Q_Rᵀ·diag(s_R² − t²)·Q_R,
//
// where R holds the rows whose s² differs from t² and Q_R those rows of
// PV. With t² the modal s² — the shared tail weight of a
// principal-vectors design — |R| is the principal count k, and AᵀA is
// the diagonal Δ = t²I + DᵀD plus a rank-|R| term. The Woodbury identity
// inverts it in closed form:
//
//	(AᵀA)⁻¹ = Δ⁻¹ − Δ⁻¹Q_Rᵀ·C⁻¹·Q_RΔ⁻¹,   C = diag(1/(s_R² − t²)) + Q_RΔ⁻¹Q_Rᵀ.
//
// C is |R|×|R| and inverted once at construction, so a solve is one
// transposed strategy product plus about 4|R|n flops, where CGLS takes
// dozens of product pairs. The solver is recognized from the operator's
// structure, so plans rehydrated from the store get it with no codec
// field.

package linalg

import (
	"fmt"
	"math"
	"sort"
)

// eigenOrthoTol is how far a factor's Gram V·Vᵀ may stray from the
// identity, entrywise, for the Woodbury form to hold.
const eigenOrthoTol = 1e-10

// eigenMaxU caps the entries of the solver's precomputed U = Q_R·Δ⁻¹
// (|R|·n floats, 4 MB at the cap), which a cached strategy keeps for its
// lifetime; past it CGLS, which keeps no such matrix, solves instead.
// census-3d's k = 16 over 2,048 cells needs 32,768.
const eigenMaxU = 1 << 19

// eigenCondTol is the smallest ratio of the smallest to the largest
// eigenvalue magnitude of the Jacobi-scaled C the solver accepts; below
// it AᵀA is numerically singular and CGLS computes the minimum-norm
// solution instead.
const eigenCondTol = 1e-8

// EigenSolver solves min ‖Ax − y‖₂ exactly for a factored eigen-design
// strategy through the Woodbury identity (see the file comment). A warmed
// solve allocates nothing; its two |R|-long vectors come from the
// workspace's t buffer.
type EigenSolver struct {
	op      Operator      // the strategy, for g = Aᵀy
	dinv    []float64     // Δ⁻¹, the inverse diagonal
	u       *Matrix       // U = Q_R·Δ⁻¹, |R|×n
	cinv    *Matrix       // C⁻¹, |R|×|R|
	sampler *eigenSampler // nil unless every s_R² > t² (see sampler.go)
}

// SolveLSInto writes (AᵀA)⁻¹Aᵀy into dst: x̂ = Δ⁻¹g − Uᵀ·C⁻¹·U·g with
// g = Aᵀy. It never fails.
func (s *EigenSolver) SolveLSInto(dst, y []float64, ws *CGWorkspace) error {
	if len(y) != s.op.Rows() || len(dst) != s.op.Cols() {
		panic(fmt.Sprintf("linalg: EigenSolver of a %dx%d strategy given rhs %d, dst %d",
			s.op.Rows(), s.op.Cols(), len(y), len(dst)))
	}
	s.op.MulVecTInto(dst, y)
	s.applyInverse(dst, ws)
	return nil
}

// applyInverse overwrites g with (AᵀA)⁻¹g = Δ⁻¹g − Uᵀ·C⁻¹·U·g.
func (s *EigenSolver) applyInverse(g []float64, ws *CGWorkspace) {
	k := s.u.rows
	ws.t = growVec(ws.t, 2*k)
	z, w := ws.t[:k], ws.t[k:]
	s.uTimes(z, g)
	s.cinv.mulRows(w, z, 0, k)
	for j, d := range s.dinv {
		g[j] *= d
	}
	s.subUT(g, w)
}

// subUT subtracts Uᵀ·w from dst, four rows of U per pass over dst.
func (s *EigenSolver) subUT(dst, w []float64) {
	r := 0
	for ; r+4 <= len(w); r += 4 {
		w0, w1, w2, w3 := w[r], w[r+1], w[r+2], w[r+3]
		u0, u1 := s.u.Row(r)[:len(dst)], s.u.Row(r + 1)[:len(dst)]
		u2, u3 := s.u.Row(r + 2)[:len(dst)], s.u.Row(r + 3)[:len(dst)]
		for j := range dst {
			dst[j] -= w0*u0[j] + w1*u1[j] + w2*u2[j] + w3*u3[j]
		}
	}
	for ; r < len(w); r++ {
		wr, u := w[r], s.u.Row(r)[:len(dst)]
		for j := range dst {
			dst[j] -= wr * u[j]
		}
	}
}

// uTimes writes U·g into z, four rows of U per pass over g.
func (s *EigenSolver) uTimes(z, g []float64) {
	r := 0
	for ; r+4 <= len(z); r += 4 {
		u0, u1 := s.u.Row(r)[:len(g)], s.u.Row(r + 1)[:len(g)]
		u2, u3 := s.u.Row(r + 2)[:len(g)], s.u.Row(r + 3)[:len(g)]
		var s0, s1, s2, s3 float64
		for j, v := range g {
			s0 += u0[j] * v
			s1 += u1[j] * v
			s2 += u2[j] * v
			s3 += u3[j] * v
		}
		z[r], z[r+1], z[r+2], z[r+3] = s0, s1, s2, s3
	}
	s.u.mulRows(z[r:], g, r, len(z))
}

// newEigenSolver returns an EigenSolver when op, looked through NormedOp,
// is StackOp(RowScaledOp(RowPermutedOp(KronOp)), *Sparse) or the same
// without the stack, where the Kronecker factors are square orthogonal
// dense matrices, the permutation is full, every completion row has at
// most one entry, at most denseCap rows (and at most eigenMaxU entries
// of Q_R) differ from the modal squared scale t², Δ = t²I + DᵀD
// is invertible (t > 0, or completion on every column), and C is
// numerically invertible.
func newEigenSolver(op Operator, denseCap int) (*EigenSolver, bool) {
	top := unwrapNormed(op)
	var comp *Sparse
	if st, ok := top.(*StackOp); ok {
		if len(st.parts) != 2 {
			return nil, false
		}
		if comp, ok = st.parts[1].(*Sparse); !ok {
			return nil, false
		}
		top = st.parts[0]
	}
	rs, ok := top.(*RowScaledOp)
	if !ok {
		return nil, false
	}
	pr, ok := rs.base.(*RowPermutedOp)
	if !ok {
		return nil, false
	}
	kron, ok := pr.base.(*KronOp)
	if !ok {
		return nil, false
	}
	n := kron.cols
	if kron.rows != n || len(pr.perm) != n || !isPermutation(pr.perm) {
		return nil, false
	}
	factors := make([]*Matrix, len(kron.factors))
	for i, f := range kron.factors {
		m, ok := f.(*Matrix)
		if !ok || m.rows != m.cols || !rowsOrthonormal(m, eigenOrthoTol) {
			return nil, false
		}
		factors[i] = m
	}

	sq := make([]float64, n)
	for i, v := range rs.scale {
		sq[i] = v * v
	}
	t2 := modalValue(sq)
	var rows []int
	for i, v := range sq {
		//lint:allow floateq: the shared tail weight is one float copied to every tail row, so equality selects exactly the rows the Woodbury term must carry; a near-equal row is carried, which is exact too
		if v != t2 {
			rows = append(rows, i)
		}
	}
	if len(rows) > denseCap || len(rows) > eigenMaxU/n {
		return nil, false
	}

	dinv := make([]float64, n)
	for j := range dinv {
		dinv[j] = t2
	}
	if comp != nil {
		for i := 0; i < comp.rows; i++ {
			switch a, b := comp.rowPtr[i], comp.rowPtr[i+1]; b - a {
			case 0:
			case 1:
				dinv[comp.colIdx[a]] += comp.val[a] * comp.val[a]
			default:
				return nil, false // DᵀD would not be diagonal
			}
		}
	}
	for j, d := range dinv {
		if !(d > 0) || math.IsInf(d, 0) {
			return nil, false // Δ is singular: a zero tail weight on an uncompleted column
		}
		dinv[j] = 1 / d
	}

	// Q_R: row r of P·V is the Kronecker product of the factor rows that
	// the flat index perm[r] selects.
	k := len(rows)
	u := New(k, n)
	idx := make([]int, len(factors))
	for a, r := range rows {
		flat := pr.perm[r]
		for i := len(factors) - 1; i >= 0; i-- {
			idx[i] = flat % factors[i].rows
			flat /= factors[i].rows
		}
		kronRowInto(u.Row(a), factors, idx)
	}
	c := New(k, k)
	for a := 0; a < k; a++ {
		qa := u.Row(a)
		for b := 0; b <= a; b++ {
			var acc float64
			for j, v := range u.Row(b) {
				acc += qa[j] * v * dinv[j]
			}
			c.Set(a, b, acc)
			c.Set(b, a, acc)
		}
		c.data[a*k+a] += 1 / (sq[rows[a]] - t2)
	}
	cinv := c // 0×0 when every row shares t²
	if k > 0 {
		if cinv, ok = invertSymmetric(c); !ok {
			return nil, false
		}
	}
	for a := 0; a < k; a++ {
		row := u.Row(a)
		for j := range row {
			row[j] *= dinv[j]
		}
	}
	s := &EigenSolver{op: op, dinv: dinv, u: u, cinv: cinv}
	s.sampler = newEigenSampler(s, sq, rows, t2)
	return s, true
}

// newEigenSampler returns the sampler of the Woodbury solver s, whose
// rows R carry squared weights sq[R] against the shared t², or nil when
// some s_R² ≤ t²: then Q_Rᵀ·diag(s_R² − t²)·Q_R has no real square root.
func newEigenSampler(s *EigenSolver, sq []float64, rows []int, t2 float64) *eigenSampler {
	e := &eigenSampler{s: s, sqrtD: make([]float64, len(s.dinv)), invW: make([]float64, len(rows))}
	for a, r := range rows {
		d := sq[r] - t2
		if !(d > 0) {
			return nil
		}
		e.invW[a] = 1 / math.Sqrt(d)
	}
	for j, d := range s.dinv {
		e.sqrtD[j] = 1 / math.Sqrt(d)
	}
	return e
}

// isPermutation reports whether perm holds every index in [0, len(perm))
// once.
func isPermutation(perm []int) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// rowsOrthonormal reports whether m·mᵀ is the identity to tol entrywise.
func rowsOrthonormal(m *Matrix, tol float64) bool {
	for i := 0; i < m.rows; i++ {
		for j := 0; j <= i; j++ {
			d := dot(m.Row(i), m.Row(j))
			if i == j {
				d--
			}
			if !(math.Abs(d) <= tol) {
				return false
			}
		}
	}
	return true
}

// modalValue returns the most frequent value of v (the smallest of tied
// ones), or 0 for an empty v.
func modalValue(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var best float64
	bestRun := 0
	for i := 0; i < len(s); {
		j := i + 1
		//lint:allow floateq: counts bit-identical copies of one value
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > bestRun {
			best, bestRun = s[i], j-i
		}
		i = j
	}
	return best
}

// invertSymmetric inverts the symmetric, possibly indefinite matrix c
// through the eigendecomposition of its Jacobi-scaled form S·c·S, with
// S = diag(|cᵢᵢ|^(−1/2)). It reports false when a diagonal entry is zero
// or not finite, or when the scaled matrix is numerically singular (see
// eigenCondTol).
func invertSymmetric(c *Matrix) (*Matrix, bool) {
	k := c.rows
	sc := make([]float64, k)
	for i := range sc {
		d := math.Abs(c.At(i, i))
		if !(d > 0) || math.IsInf(d, 0) {
			return nil, false
		}
		sc[i] = 1 / math.Sqrt(d)
	}
	scaled := New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			scaled.Set(i, j, c.At(i, j)*sc[i]*sc[j])
		}
	}
	eg, err := SymEigen(scaled)
	if err != nil {
		return nil, false
	}
	var maxAbs float64
	for _, v := range eg.Values {
		maxAbs = max(maxAbs, math.Abs(v))
	}
	inv := New(k, k)
	for r, lam := range eg.Values {
		if !(math.Abs(lam) > eigenCondTol*maxAbs) {
			return nil, false
		}
		vec := eg.Vectors.Row(r)
		for i := 0; i < k; i++ {
			vi := vec[i] / lam
			row := inv.Row(i)
			for j := 0; j < k; j++ {
				row[j] += vi * vec[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		row := inv.Row(i)
		for j := range row {
			row[j] *= sc[i] * sc[j]
		}
	}
	return inv, true
}
