package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// productCase is one operator of the bit-identity table.
type productCase struct {
	name string
	op   Operator
}

// productCases builds the table the matvec contract is checked on: every
// representation, with the combinators over bases that need scratch.
func productCases(r *rand.Rand) []productCase {
	dense := randMatrix(r, 17, 9)
	sb := NewSparseBuilder(12)
	for i := 0; i < 23; i++ {
		lo := r.Intn(12)
		hi := lo + r.Intn(12-lo)
		sb.AppendRangeRow(lo, hi, 1+r.Float64())
	}
	sparse := sb.Build()
	perm := r.Perm(dense.Rows())
	scale := make([]float64, sparse.Rows())
	for i := range scale {
		scale[i] = r.NormFloat64()
	}
	inner := randMatrix(r, 7, 11)
	outer := randMatrix(r, 19, 7)
	orth := func(n int) *Matrix {
		e, err := SymEigen(randSPD(r, n))
		if err != nil {
			panic(err)
		}
		return e.Vectors
	}
	return []productCase{
		{"dense", dense},
		{"sparse", sparse},
		{"identity", Eye(13)},
		{"prefix", NewPrefixOp(15)},
		{"intervals", NewIntervalsOp(9)},
		{"kron2", NewKronOp(NewPrefixOp(5), randMatrix(r, 4, 3))},
		{"kron3", NewKronOp(randMatrix(r, 3, 2), NewIntervalsOp(3), NewPrefixOp(4))},
		// Three binary trees, as the hierarchical strategy of a 3-D
		// domain, and a product of dense orthogonal factors, as the
		// eigenbasis of a factored eigen design.
		{"kron-trees", NewKronOp(binaryTree(2), binaryTree(4), binaryTree(5))},
		{"kron-orthogonal", NewKronOp(orth(3), orth(5), orth(4))},
		// A wide last factor: the transposed product's last mode runs
		// one column at a time.
		{"kron-wide", NewKronOp(randMatrix(r, 3, 2), randMatrix(r, 2, 5))},
		{"stack", StackOps(NewPrefixOp(8), Eye(8), randMatrix(r, 5, 8))},
		{"blockdiag", BlockDiag(randMatrix(r, 4, 3), NewPrefixOp(5), NewIntervalsOp(4))},
		{"scaled", ScaleOp(NewIntervalsOp(7), 1.0/3)},
		{"rowscaled", ScaleRows(sparse, scale)},
		{"permuted", PermuteRows(dense, perm)},
		{"permuted-eye", PermuteRows(Eye(6), []int{4, 0, 5, 0})},
		{"normed", WithColNorms(NewPrefixOp(10), make([]float64, 10), make([]float64, 10))},
		{"composed", ComposeOps(outer, inner)},
	}
}

// binaryTree is the hierarchical strategy over d cells in CSR form: the
// whole interval, halved breadth-first down to single cells.
func binaryTree(d int) *Sparse {
	b := NewSparseBuilder(d)
	for queue := [][2]int{{0, d - 1}}; len(queue) > 0; queue = queue[1:] {
		lo, hi := queue[0][0], queue[0][1]
		b.AppendRangeRow(lo, hi, 1)
		if lo < hi {
			mid := (lo + hi) / 2
			queue = append(queue, [2]int{lo, mid}, [2]int{mid + 1, hi})
		}
	}
	return b.Build()
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMulVecIntoMatchesMulVec checks that the write-into kernels write
// exactly what the allocating helpers return, overwriting every cell of a
// NaN-filled dst, and that a product in between (which dirties any pooled
// scratch) changes no bit.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, tc := range productCases(r) {
		op := tc.op
		for trial := 0; trial < 5; trial++ {
			x, y := randVec(r, op.Cols()), randVec(r, op.Rows())
			want, wantT := MulVec(op, x), MulVecT(op, y)
			MulVec(op, randVec(r, op.Cols()))
			MulVecT(op, randVec(r, op.Rows()))
			dst := nanVec(op.Rows())
			op.MulVecInto(dst, x)
			sameBits(t, tc.name+" MulVecInto", dst, want)
			dstT := nanVec(op.Cols())
			op.MulVecTInto(dstT, y)
			sameBits(t, tc.name+" MulVecTInto", dstT, wantT)
		}
	}
}

// TestMulVecRangeIntoMatchesFullBitExact sweeps every [lo,hi) window on
// small operators: a chunked answer must match the full product's window
// bit for bit at every boundary, not approximately.
func TestMulVecRangeIntoMatchesFullBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, tc := range productCases(r) {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.op.Rows()
			x := randVec(r, tc.op.Cols())
			full := MulVec(tc.op, x)
			for lo := 0; lo <= rows; lo++ {
				for hi := lo; hi <= rows; hi++ {
					dst := nanVec(hi - lo)
					MulVecRangeInto(tc.op, dst, x, lo, hi)
					sameBits(t, fmt.Sprintf("%s range [%d,%d)", tc.name, lo, hi), dst, full[lo:hi])
				}
			}
		})
	}
}

// TestMulVecRangeIntoChunkSweep reassembles the full product from
// contiguous chunks of awkward sizes and requires bit-identity — the
// exact access pattern StreamRelease uses.
func TestMulVecRangeIntoChunkSweep(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range productCases(r) {
		rows := tc.op.Rows()
		x := randVec(r, tc.op.Cols())
		full := MulVec(tc.op, x)
		for _, chunk := range []int{1, 3, 7, rows, rows + 5} {
			got := make([]float64, rows)
			buf := make([]float64, chunk)
			for lo := 0; lo < rows; lo += chunk {
				hi := min(lo+chunk, rows)
				MulVecRangeInto(tc.op, buf[:hi-lo], x, lo, hi)
				copy(got[lo:hi], buf[:hi-lo])
			}
			sameBits(t, fmt.Sprintf("%s chunk %d", tc.name, chunk), got, full)
		}
	}
}

// TestProductsZeroAlloc pins that once warmed, every representation's
// three kernels allocate nothing: combinators draw their intermediates
// from pooled scratch.
func TestProductsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, tc := range productCases(r) {
		op := tc.op
		x, y := randVec(r, op.Cols()), randVec(r, op.Rows())
		dst, dstT := make([]float64, op.Rows()), make([]float64, op.Cols())
		run := func() {
			op.MulVecInto(dst, x)
			op.MulVecTInto(dstT, y)
			op.MulVecRangeInto(dst, x, op.Rows()/3, op.Rows())
		}
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s: warmed products allocate %v per run, want 0", tc.name, n)
		}
	}
}

// TestSharedOperatorConcurrentProducts runs products on one shared
// operator from 8 goroutines at once: each must rent its own scratch, so
// every result matches the sequential product bit for bit.
func TestSharedOperatorConcurrentProducts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kron := NewKronOp(randMatrix(r, 6, 5), NewIntervalsOp(4), randMatrix(r, 3, 4))
	perm := r.Perm(kron.Rows())
	for _, op := range []Operator{kron, PermuteRows(kron, perm[:kron.Rows()/2])} {
		const workers = 8
		xs, ys := make([][]float64, workers), make([][]float64, workers)
		want, wantT := make([][]float64, workers), make([][]float64, workers)
		for g := range xs {
			xs[g], ys[g] = randVec(r, op.Cols()), randVec(r, op.Rows())
			want[g], wantT[g] = MulVec(op, xs[g]), MulVecT(op, ys[g])
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst, dstT := make([]float64, op.Rows()), make([]float64, op.Cols())
				for rep := 0; rep < 20; rep++ {
					op.MulVecInto(dst, xs[g])
					op.MulVecTInto(dstT, ys[g])
					for i := range dst {
						if math.Float64bits(dst[i]) != math.Float64bits(want[g][i]) {
							errs <- fmt.Errorf("%T worker %d: MulVecInto[%d] = %v, want %v", op, g, i, dst[i], want[g][i])
							return
						}
					}
					for i := range dstT {
						if math.Float64bits(dstT[i]) != math.Float64bits(wantT[g][i]) {
							errs <- fmt.Errorf("%T worker %d: MulVecTInto[%d] = %v, want %v", op, g, i, dstT[i], wantT[g][i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

func TestMulVecRangeIntoPanics(t *testing.T) {
	op := NewPrefixOp(4)
	x := make([]float64, 4)
	for _, tc := range []struct {
		name       string
		lo, hi, sz int
	}{
		{"negative lo", -1, 2, 3},
		{"hi before lo", 3, 2, 0},
		{"hi past rows", 0, 5, 5},
		{"short buffer", 0, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			MulVecRangeInto(op, make([]float64, tc.sz), x, tc.lo, tc.hi)
		})
	}
}

// TestSolveCGLSIntoMatchesSolveCGLS checks a solve through a reused,
// warmed workspace against one through a fresh workspace, and pins the
// warmed solve's zero-alloc steady state.
func TestSolveCGLSIntoMatchesSolveCGLS(t *testing.T) {
	b := NewSparseBuilder(8)
	for _, iv := range [][2]int{{0, 7}, {0, 3}, {4, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		b.AppendRangeRow(iv[0], iv[1], 1)
	}
	a := b.Build()
	rhs := make([]float64, a.Rows())
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	want, err := solveCGLS(a, rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := &CGWorkspace{}
	dst := make([]float64, a.Cols())
	if err := SolveCGLSInto(a, rhs, dst, CGOptions{}, ws); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveCGLSInto[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := SolveCGLSInto(a, rhs, dst, CGOptions{}, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed SolveCGLSInto allocates %v per run, want 0", n)
	}
}
