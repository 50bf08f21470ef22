package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// slabWidths are the widths every slab kernel is checked at: one column,
// a few, exactly one column block and one column past it.
var slabWidths = []int{1, 3, slabBlock, slabBlock + 1}

// columnwise is the reference for a slab kernel: kernel applied to each
// column of the m×w slab in, one gathered fiber at a time, scattered into
// an n×w slab.
func columnwise(m, n, w int, in []float64, kernel func(out, in []float64)) []float64 {
	out := make([]float64, n*w)
	fin, fout := make([]float64, m), make([]float64, n)
	for c := 0; c < w; c++ {
		for j := range fin {
			fin[j] = in[j*w+c]
		}
		kernel(fout, fin)
		for i, v := range fout {
			out[i*w+c] = v
		}
	}
	return out
}

// slabInput is a random slab with every fifth entry an exact zero, which
// the vector transposes skip and the slab transposes add.
func slabInput(r *rand.Rand, n int) []float64 {
	v := randVec(r, n)
	for i := 0; i < n; i += 5 {
		v[i] = 0
	}
	return v
}

// TestSlabKernelsMatchVectorKernels pins every slab kernel, at every
// width in slabWidths, to its factor's vector kernel applied column by
// column, bit for bit, writing every entry of a NaN-filled dst.
func TestSlabKernelsMatchVectorKernels(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	sparse := randSparse(r, 13, 9)
	tree := binaryTree(11)
	dense := randMatrix(r, 9, 7) // 7 columns: four-wide sums and a tail
	prefix := NewPrefixOp(6)     // no slab kernel: the column adapter
	for _, w := range slabWidths {
		check := func(name string, got, want []float64) {
			t.Helper()
			sameBits(t, fmt.Sprintf("%s width %d", name, w), got, want)
		}
		for _, f := range []struct {
			name string
			op   Operator
		}{{"sparse", sparse}, {"tree", tree}, {"dense", dense}, {"prefix", prefix}} {
			m, n := f.op.Rows(), f.op.Cols()
			x, y := slabInput(r, n*w), slabInput(r, m*w)
			fibers := make([]float64, m+n)
			for _, rg := range [][2]int{{0, m}, {1, m - 1}} {
				lo, hi := rg[0], rg[1]
				got := nanVec((hi - lo) * w)
				mulSlabRange(f.op, got, x, w, lo, hi, fibers)
				check(fmt.Sprintf("%s rows [%d,%d)", f.name, lo, hi), got, columnwise(n, hi-lo, w, x, func(out, in []float64) {
					f.op.MulVecRangeInto(out, in, lo, hi)
				}))

				// w consecutive inputs, each answered on rows [lo,hi).
				got = nanVec((hi - lo) * w)
				mulRangeBatch(f.op, got, x, w, lo, hi)
				want := make([]float64, (hi-lo)*w)
				for k := 0; k < w; k++ {
					f.op.MulVecRangeInto(want[k*(hi-lo):(k+1)*(hi-lo)], x[k*n:(k+1)*n], lo, hi)
				}
				check(fmt.Sprintf("%s batch [%d,%d)", f.name, lo, hi), got, want)
			}
			got := nanVec(n * w)
			mulSlabT(f.op, got, y, w, fibers)
			check(f.name+" transposed", got, columnwise(m, n, w, y, f.op.MulVecTInto))
		}

		pinv, err := NewPinvSolver(dense)
		if err != nil {
			t.Fatal(err)
		}
		var ws CGWorkspace
		y := slabInput(r, dense.rows*w)
		got := nanVec(dense.cols * w)
		pinv.solveSlab(got, y, w, &ws)
		check("PinvSolver.solveSlab", got, columnwise(dense.rows, dense.cols, w, y, func(out, in []float64) {
			_ = pinv.SolveLSInto(out, in, &ws)
		}))
	}
}

// TestTreeSlabSolveMatchesSolveLSInto runs the slab tree solve on every
// forest shape of treeCases, uncovered cells included, at every width in
// slabWidths and two blocks and a remainder: each column equals
// SolveLSInto's solution bit for bit, and a workspace holds one column
// block per node, not the slab.
func TestTreeSlabSolveMatchesSolveLSInto(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, tc := range treeCases() {
		b := NewSparseBuilder(tc.cols)
		tc.build(b)
		ts, ok := NewTreeSolver(b.Build())
		if !ok {
			t.Fatalf("%s: not recognized", tc.name)
		}
		for _, w := range append(slabWidths, 2*slabBlock+5) {
			y := randVec(r, ts.rows*w)
			var ws CGWorkspace
			got := nanVec(ts.cols * w)
			ts.solveSlab(got, y, w, &ws)
			want := columnwise(ts.rows, ts.cols, w, y, func(out, in []float64) {
				_ = ts.SolveLSInto(out, in, &ws)
			})
			sameBits(t, fmt.Sprintf("%s width %d", tc.name, w), got, want)
			if cap(ws.r) > (ts.rows+1)*slabBlock {
				t.Fatalf("%s width %d: workspace %d values, want at most %d", tc.name, w, cap(ws.r), (ts.rows+1)*slabBlock)
			}
		}
	}
}

// TestDenseSlabParallelMatchesVectorKernels runs the dense slab kernels
// past denseMatvecThreshold, where they split their output rows across
// the pool on more than one CPU: a wide slab of a mid-sized matrix and a
// three-column slab of a large one (a big factor whose other modes are
// small) equal the vector kernels column by column, bit for bit.
func TestDenseSlabParallelMatchesVectorKernels(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, c := range []struct{ rows, cols, w int }{{130, 110, 37}, {400, 300, 3}} {
		d := randMatrix(r, c.rows, c.cols)
		if c.rows*c.cols*c.w <= denseMatvecThreshold {
			t.Fatalf("%d×%d at width %d stays under the parallel threshold", c.rows, c.cols, c.w)
		}
		name := fmt.Sprintf("%d×%d width %d", c.rows, c.cols, c.w)
		x, y := slabInput(r, c.cols*c.w), slabInput(r, c.rows*c.w)
		got := nanVec((c.rows - 2) * c.w)
		d.mulSlabRange(got, x, c.w, 1, c.rows-1)
		sameBits(t, name+" rows", got, columnwise(c.cols, c.rows-2, c.w, x, func(out, in []float64) {
			d.mulRows(out, in, 1, c.rows-1)
		}))
		got = nanVec(c.cols * c.w)
		d.mulSlabT(got, y, c.w)
		sameBits(t, name+" transposed", got, columnwise(c.rows, c.cols, c.w, y, func(out, in []float64) {
			d.tMulVecRange(out, in, 0, c.cols)
		}))
	}
}

// TestKronScratchBound pins a Kronecker product's pooled scratch to the
// per-fiber loop's bound when the last factor is wide (more columns than
// rows): the last mode writes dst one column at a time, so its output
// never needs a stage of scratch. Kron(tree over 4 cells, total of 6
// cells) is 7×4 ⊗ 1×6: stage 4·1, modesLen 2·4 + 7 + 6 = 21, and the
// forward range product's 7·6 + 4 + 7 = 53 sets the pool.
func TestKronScratchBound(t *testing.T) {
	total := NewSparseBuilder(6)
	total.AppendRangeRow(0, 5, 1)
	op := NewKronOp(binaryTree(4), total.Build()).(*KronOp)
	if op.stage != 4 || op.modesLen != 21 || op.scratch.n != 53 {
		t.Fatalf("stage %d, modesLen %d, pool %d values; want 4, 21, 53", op.stage, op.modesLen, op.scratch.n)
	}
	r := rand.New(rand.NewSource(37))
	y := randVec(r, op.Rows())
	got := nanVec(op.Cols())
	op.MulVecTInto(got, y)
	want := MulVec(ToDense(op).T(), y)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*max(1, math.Abs(want[i])) {
			t.Fatalf("Aᵀy[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	s, ok := newKronSolver(op, 16)
	if !ok {
		t.Fatal("no Kronecker solver for a tree and a total")
	}
	var ws CGWorkspace
	_ = s.SolveLSInto(got, y, &ws)
	if len(ws.t) != op.modesLen {
		t.Fatalf("solve scratch %d values, want modesLen %d", len(ws.t), op.modesLen)
	}
}
