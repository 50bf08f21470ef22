// Streaming releases: answer huge workloads in bounded memory.
//
// A buffered release materializes all W·x̂ answers at once, so its peak
// memory is O(workload rows) — AllRange(2048) alone is ~2.1M float64s per
// release. But the expensive, privacy-relevant part of a release (noise +
// inference) lives entirely in estimate space, which is O(cells); only
// the final workload product is row-sized. StreamRelease splits the two:
// it runs noise and inference once, exactly as the buffered path does
// (consuming the identical noise stream, producing the identical
// estimate), then yields the workload answers chunk by chunk through the
// linalg row-range kernels. Peak memory per active release becomes
// O(cells + ChunkSize), independent of the workload's row count, and the
// chunks reassemble the buffered answer vector bit for bit.

package mm

import (
	"fmt"

	"adaptivemm/internal/workload"
)

// DefaultStreamChunk is the chunk size (in answers) used when the caller
// passes chunkSize ≤ 0: 8192 float64s, 64 KiB per buffer.
const DefaultStreamChunk = 8192

// AnswerStream yields one release's workload answers in row order, chunk
// by chunk. It owns a rented ReleaseScratch until Close; the slice
// returned by Next aliases that scratch and is valid only until the next
// Next or Close call. A stream is single-goroutine; it must be Closed
// exactly once (Close is idempotent).
type AnswerStream struct {
	m         *Mechanism
	w         *workload.Workload
	sc        *ReleaseScratch
	xhat      []float64
	rows      int
	chunkSize int
	off       int
}

// StreamRelease draws noise and infers the cell estimate once — the same
// kernels, the same noise consumption, and therefore bit-identical
// estimates to AnswerGaussianInto on the same noise source — and returns
// a stream over the workload answers. The caller must Close the stream to
// return its scratch to the mechanism's pool.
func (m *Mechanism) StreamRelease(w *workload.Workload, x []float64, p Privacy, r NoiseSource, chunkSize int) (*AnswerStream, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	if !w.Answerable() {
		return nil, fmt.Errorf("mm: workload %q is gram-only and cannot be answered on data", w.Name())
	}
	if err := m.checkPlanned(w); err != nil {
		return nil, err
	}
	sc := m.GetScratch()
	xhat, err := m.EstimateGaussianInto(sc, x, p, r)
	if err != nil {
		m.PutScratch(sc)
		return nil, err
	}
	//lint:allow poolescape: intended ownership transfer — the stream owns the scratch and AnswerStream.Close is its PutScratch (poolescape tracks the pair at every caller)
	return &AnswerStream{
		m:         m,
		w:         w,
		sc:        sc,
		xhat:      xhat,
		rows:      w.NumQueries(),
		chunkSize: chunkSize,
	}, nil
}

// Rows is the total number of answers the stream will yield.
func (st *AnswerStream) Rows() int { return st.rows }

// ChunkSize is the resolved chunk size in answers.
func (st *AnswerStream) ChunkSize() int { return st.chunkSize }

// Next yields the next chunk: answers for rows [offset, offset+len).
// The slice aliases the stream's scratch — consume it before the next
// Next or Close. ok is false when the stream is exhausted or closed.
func (st *AnswerStream) Next() (offset int, answers []float64, ok bool) {
	if st.sc == nil || st.off >= st.rows {
		return 0, nil, false
	}
	lo := st.off
	hi := lo + st.chunkSize
	if hi > st.rows {
		hi = st.rows
	}
	st.off = hi
	st.sc.chunk = growFloats(st.sc.chunk, hi-lo)
	dst := st.sc.chunk[:hi-lo]
	if st.m.shards == nil {
		st.w.MulQueriesRangeInto(dst, st.xhat, lo, hi)
	} else {
		st.m.shardRangeInto(dst, st.xhat, lo, hi)
	}
	return lo, dst, true
}

// Close returns the stream's scratch to the mechanism's pool. Slices
// returned by Next become invalid. Close is idempotent.
func (st *AnswerStream) Close() {
	if st.sc != nil {
		st.m.PutScratch(st.sc)
		st.sc = nil
		st.xhat = nil
	}
}
