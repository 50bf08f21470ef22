// The matvec contract. Every representation answers products by writing
// into a caller-owned buffer, through three kernels (see Operator):
//
//   - MulVecRangeInto(dst, x, lo, hi) writes rows [lo,hi) of A·x into
//     dst[:hi-lo]. It is the one forward loop a representation writes.
//   - MulVecInto(dst, x) runs that loop over [0, Rows()), so a full
//     product equals every window of it bit for bit by construction:
//     streamed and buffered releases of the same estimate agree exactly.
//   - MulVecTInto(dst, y) writes Aᵀ·y into dst.
//
// dst must not alias the input: kernels overwrite dst freely, including
// zeroing it before accumulation. A range kernel's setup (a prefix
// re-accumulation, a segment scan) and scratch are bounded by the
// operator's cell and factor dimensions, never by its row count, so a
// release can stream the ~2.1M rows of all-range on 2048 cells in
// chunk-sized memory.
//
// Combinators that need an intermediate vector (Kron, Composed,
// RowPermuted over a non-identity base, and the RowScaled and Stack
// transposes) take it from a vecPool sized when the operator is built, so
// steady-state products allocate nothing and concurrent products on one
// shared operator never share scratch. MulVec and MulVecT are the
// allocating conveniences for design-time code.

package linalg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MulVec returns op·x in a freshly allocated slice.
func MulVec(op Operator, x []float64) []float64 {
	return MulVecInto(op, make([]float64, op.Rows()), x)
}

// MulVecT returns opᵀ·y in a freshly allocated slice.
func MulVecT(op Operator, y []float64) []float64 {
	return MulVecTInto(op, make([]float64, op.Cols()), y)
}

// MulVecInto writes op·x into dst, whose length must be op.Rows(), and
// returns dst.
func MulVecInto(op Operator, dst, x []float64) []float64 {
	checkMulVecLen(op, len(dst), op.Rows(), false)
	op.MulVecInto(dst, x)
	return dst
}

// MulVecTInto writes opᵀ·y into dst, whose length must be op.Cols(), and
// returns dst.
func MulVecTInto(op Operator, dst, y []float64) []float64 {
	checkMulVecLen(op, len(dst), op.Cols(), true)
	op.MulVecTInto(dst, y)
	return dst
}

// MulVecRangeInto writes rows [lo,hi) of op·x into dst and returns dst.
func MulVecRangeInto(op Operator, dst, x []float64, lo, hi int) []float64 {
	checkRowRange(op, lo, hi, len(dst))
	op.MulVecRangeInto(dst, x, lo, hi)
	return dst
}

func checkMulVecLen(op Operator, got, want int, transposed bool) {
	if got != want {
		dir := "MulVec"
		if transposed {
			dir = "MulVecT"
		}
		panic(fmt.Sprintf("linalg: %s length %d, want %d (%dx%d operator)", dir, got, want, op.Rows(), op.Cols()))
	}
}

// checkRowRange validates a row-range request against the operator.
func checkRowRange(op Operator, lo, hi, dstLen int) {
	if lo < 0 || hi < lo || hi > op.Rows() {
		panic(fmt.Sprintf("linalg: MulVecRangeInto range [%d,%d) of %d rows", lo, hi, op.Rows()))
	}
	if dstLen < hi-lo {
		panic(fmt.Sprintf("linalg: MulVecRangeInto buffer %d for %d rows", dstLen, hi-lo))
	}
}

// vecPool recycles a combinator's intermediate vector, whose length is
// fixed when the operator is built. Each product rents its own vector, so
// concurrent products on one operator are independent. The last returned
// vector waits in a one-slot cache before the sync.Pool: the pool drops
// entries at every GC and, under the race detector, at random on Put, and
// the slot keeps a sequential caller's steady state allocation-free
// regardless. Vectors travel as *[]float64 so that Put does not allocate.
type vecPool struct {
	n    int
	last atomic.Pointer[[]float64]
	p    sync.Pool
}

func newVecPool(n int) *vecPool { return &vecPool{n: n} }

func (v *vecPool) get() *[]float64 {
	if s := v.last.Swap(nil); s != nil {
		return s
	}
	if s, ok := v.p.Get().(*[]float64); ok {
		return s
	}
	s := make([]float64, v.n)
	return &s
}

func (v *vecPool) put(s *[]float64) {
	if !v.last.CompareAndSwap(nil, s) {
		v.p.Put(s)
	}
}
