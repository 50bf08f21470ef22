// Persistent worker pool for row-blocked kernels. The old ParallelRows
// spawned a goroutine per block on every call, which is fine for one-shot
// design-time factorizations but wrong for the release hot path, where a
// dense matvec may run thousands of times per second: goroutine spawn and
// per-call closure allocation dominate. The pool parks a fixed set of
// workers on a channel once; each parallel call hands the same job object
// to up to poolWorkers() of them, and caller plus workers pull fixed-size
// row blocks off a shared atomic cursor (work stealing, so uneven blocks
// balance). Job and task objects are recycled through sync.Pools, keeping
// steady-state parallel matvecs allocation-free.

package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// rowTask is a unit of blocked work: runBlock processes rows [lo, hi).
// Implementations are plain structs (not closures) so hot-path callers can
// pool them.
type rowTask interface {
	runBlock(lo, hi int)
}

// rowJob is one parallel invocation: a task, a shared block cursor, and a
// wait group counting worker participations.
type rowJob struct {
	task  rowTask
	n     int
	block int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// grab pulls blocks off the cursor until the range is exhausted.
func (j *rowJob) grab() {
	for {
		hi := int(j.next.Add(int64(j.block)))
		lo := hi - j.block
		if lo >= j.n {
			return
		}
		if hi > j.n {
			hi = j.n
		}
		j.task.runBlock(lo, hi)
	}
}

var (
	poolOnce sync.Once
	poolJobs chan *rowJob
	poolSize int

	jobPool = sync.Pool{New: func() any { return new(rowJob) }}
)

// startPool parks the helper workers. Pool size is fixed at first use:
// GOMAXPROCS-1 helpers (the caller is the remaining worker), but at least
// two so the handoff path stays exercised — and testable — on single-CPU
// machines, where the gate in runParallel keeps them idle.
func startPool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0) - 1
		if poolSize < 2 {
			poolSize = 2
		}
		poolJobs = make(chan *rowJob, poolSize)
		for i := 0; i < poolSize; i++ {
			go func() {
				for j := range poolJobs {
					j.grab()
					j.wg.Done()
				}
			}()
		}
	})
}

// runParallel runs the task over [0, n) in blocks of the given size, the
// caller working alongside up to helpers pool workers. Busy workers are
// skipped rather than waited for — the caller then just does more of the
// work itself. It never blocks on pool capacity and reuses job objects, so
// a steady-state call performs no allocation.
func runParallel(t rowTask, n, block, helpers int) {
	startPool()
	if block < 1 {
		block = 1
	}
	if max := (n + block - 1) / block; helpers > max-1 {
		helpers = max - 1 // no point waking more workers than blocks
	}
	if helpers > poolSize {
		helpers = poolSize
	}
	j := jobPool.Get().(*rowJob)
	j.task = t
	j.n = n
	j.block = block
	j.next.Store(0)
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case poolJobs <- j:
		default:
			j.wg.Done() // all workers busy: caller picks up the slack
		}
	}
	j.grab()
	j.wg.Wait()
	j.task = nil
	jobPool.Put(j)
}

// funcTask adapts a closure to rowTask for design-time callers that do not
// care about the allocation.
type funcTask struct{ f func(lo, hi int) }

func (t *funcTask) runBlock(lo, hi int) { t.f(lo, hi) }

// --- pooled dense matvec tasks ---

// denseMatvecThreshold is the flop count above which a dense matvec fans
// out across the pool. Below it the blocked single-thread kernel wins.
const denseMatvecThreshold = 1 << 18

// matvecRowBlock sizes row blocks so each holds on the order of 16k
// multiplies: big enough to amortize the cursor atomics, small enough that
// work stealing evens out scheduling noise and x stays hot in cache while
// a block streams its rows.
func matvecRowBlock(cols int) int {
	if cols <= 0 {
		return 1
	}
	b := 16384 / cols
	if b < 1 {
		b = 1
	}
	return b
}

// matvecTask is a pooled dense A·x task: block [a, b) of a range
// starting at row lo.
type matvecTask struct {
	m   *Matrix
	dst []float64
	x   []float64
	lo  int
}

func (t *matvecTask) runBlock(a, b int) { t.m.mulRows(t.dst[a:b], t.x, t.lo+a, t.lo+b) }

// matvecTTask is a pooled dense Aᵀ·y task over column blocks: each block
// owns dst[lo:hi] and streams the matching column stripe of every row, so
// blocks write disjoint output and each dst[j] accumulates rows in the
// same order as the sequential kernel (results are bit-identical).
type matvecTTask struct {
	m   *Matrix
	dst []float64
	y   []float64
}

func (t *matvecTTask) runBlock(lo, hi int) { t.m.tMulVecRange(t.dst, t.y, lo, hi) }

var (
	matvecTaskPool  = sync.Pool{New: func() any { return new(matvecTask) }}
	matvecTTaskPool = sync.Pool{New: func() any { return new(matvecTTask) }}
)

// mulRows writes rows [lo, hi) of m·x into dst[:hi-lo], four partial sums
// per row so the compiler can keep independent FMA chains in flight. It
// is the one dense forward row kernel.
func (m *Matrix) mulRows(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(row); j += 4 {
			s0 += row[j] * x[j]
			s1 += row[j+1] * x[j+1]
			s2 += row[j+2] * x[j+2]
			s3 += row[j+3] * x[j+3]
		}
		s := s0 + s1 + s2 + s3
		for ; j < len(row); j++ {
			s += row[j] * x[j]
		}
		dst[i-lo] = s
	}
}

// tMulVecRange accumulates the column stripe [lo, hi) of mᵀ·y into
// dst[lo:hi], skipping zero weights. The inner loop is unrolled by four:
// each dst[j] still takes its terms one at a time in row order, so the
// result is unchanged, and the loop runs at one speed wherever the
// linker places it (the rolled loop ran ~40% slower in some builds,
// which showed as set-up time in the principal-vectors design).
func (m *Matrix) tMulVecRange(dst, y []float64, lo, hi int) {
	out := dst[lo:hi]
	clear(out)
	for i := 0; i < m.rows; i++ {
		a := y[i]
		if a == 0 {
			continue
		}
		row := m.data[i*m.cols+lo : i*m.cols+hi]
		j := 0
		for ; j+4 <= len(row); j += 4 {
			r, o := row[j:j+4:j+4], out[j:j+4:j+4]
			o[0] += a * r[0]
			o[1] += a * r[1]
			o[2] += a * r[2]
			o[3] += a * r[3]
		}
		for ; j < len(row); j++ {
			out[j] += a * row[j]
		}
	}
}

// slabTask is a pooled dense slab product over blocks of output rows:
// each block writes its own rows of dst, every entry summed in the
// sequential kernel's order (results are bit-identical).
type slabTask struct {
	m      *Matrix
	dst, x []float64
	w, lo  int
	trans  bool
}

func (t *slabTask) runBlock(a, b int) {
	if t.trans {
		t.m.tSlabRows(t.dst, t.x, t.w, a, b)
		return
	}
	t.m.slabRows(t.dst[a*t.w:], t.x, t.w, t.lo+a, t.lo+b)
}

var slabTaskPool = sync.Pool{New: func() any { return new(slabTask) }}

// parallelSlab runs a slab product of n output rows starting at lo, each
// costing rowWork flops, across the pool in blocks of the given rows, and
// reports true when its flops pass denseMatvecThreshold; below that the
// caller runs it inline.
func (m *Matrix) parallelSlab(dst, x []float64, w, lo, n, rowWork, block int, trans bool) bool {
	if n*rowWork <= denseMatvecThreshold || n < 2 {
		return false
	}
	helpers := runtime.GOMAXPROCS(0) - 1
	if helpers <= 0 {
		return false
	}
	t := slabTaskPool.Get().(*slabTask)
	*t = slabTask{m: m, dst: dst, x: x, w: w, lo: lo, trans: trans}
	runParallel(t, n, block, helpers)
	*t = slabTask{}
	slabTaskPool.Put(t)
	return true
}

// mulSlabRange writes rows [lo, hi) of m applied to every column of the
// cols×w slab x into the (hi-lo)×w slab dst, split across the pool by
// output rows as MulVecRangeInto is.
func (m *Matrix) mulSlabRange(dst, x []float64, w, lo, hi int) {
	if !m.parallelSlab(dst, x, w, lo, hi-lo, m.cols*w, matvecRowBlock(m.cols*w), false) {
		m.slabRows(dst, x, w, lo, hi)
	}
}

// mulSlabT writes mᵀ applied to every column of the rows×w slab y into
// the cols×w slab dst, split across the pool by output rows as
// MulVecTInto is. A block of output rows is a column stripe of m, at
// least eight wide so each row of m gives it a whole cache line.
func (m *Matrix) mulSlabT(dst, y []float64, w int) {
	if !m.parallelSlab(dst, y, w, 0, m.cols, m.rows*w, max(8, matvecRowBlock(m.rows*w)), true) {
		m.tSlabRows(dst, y, w, 0, m.cols)
	}
}

// slabRows writes rows [lo, hi) of m applied to every column of the
// cols×w slab x into the (hi-lo)×w slab dst. Each column keeps mulRows'
// four partial sums, so the result equals mulRows column by column bit
// for bit; the sums of one column block live on the stack.
func (m *Matrix) slabRows(dst, x []float64, w, lo, hi int) {
	var acc [4][slabBlock]float64
	for c0 := 0; c0 < w; c0 += slabBlock {
		bw := min(slabBlock, w-c0)
		s0, s1, s2, s3 := acc[0][:bw], acc[1][:bw], acc[2][:bw], acc[3][:bw]
		for i := lo; i < hi; i++ {
			row := m.data[i*m.cols : (i+1)*m.cols]
			clear(s0)
			clear(s1)
			clear(s2)
			clear(s3)
			j := 0
			for ; j+4 <= len(row); j += 4 {
				r0, r1, r2, r3 := row[j], row[j+1], row[j+2], row[j+3]
				x0, x1 := x[j*w+c0:][:bw], x[(j+1)*w+c0:][:bw]
				x2, x3 := x[(j+2)*w+c0:][:bw], x[(j+3)*w+c0:][:bw]
				for c := range s0 {
					s0[c] += r0 * x0[c]
					s1[c] += r1 * x1[c]
					s2[c] += r2 * x2[c]
					s3[c] += r3 * x3[c]
				}
			}
			out := dst[(i-lo)*w+c0:][:bw]
			for c := range out {
				out[c] = s0[c] + s1[c] + s2[c] + s3[c]
			}
			for ; j < len(row); j++ {
				r, xj := row[j], x[j*w+c0:][:bw]
				for c := range out {
					out[c] += r * xj[c]
				}
			}
		}
	}
}

// tSlabRows writes rows [lo, hi) of mᵀ applied to every column of the
// rows×w slab y into the same rows of the cols×w slab dst, accumulating
// in row order as tMulVecRange does. Like Sparse.mulSlabT it does not
// skip zero weights, which changes no bit while the entries are finite.
// Four rows of m go into each pass over dst, still added one at a time in
// row order, so a narrow slab does not pay a pass over dst per row.
func (m *Matrix) tSlabRows(dst, y []float64, w, lo, hi int) {
	clear(dst[lo*w : hi*w])
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		y0, y1, y2, y3 := y[i*w:][:w], y[(i+1)*w:][:w], y[(i+2)*w:][:w], y[(i+3)*w:][:w]
		r0 := m.data[i*m.cols+lo : i*m.cols+hi]
		r1 := m.data[(i+1)*m.cols+lo:][:len(r0)]
		r2 := m.data[(i+2)*m.cols+lo:][:len(r0)]
		r3 := m.data[(i+3)*m.cols+lo:][:len(r0)]
		for j, a0 := range r0 {
			a1, a2, a3 := r1[j], r2[j], r3[j]
			out := dst[(lo+j)*w:][:w]
			for c := range out {
				out[c] = out[c] + y0[c]*a0 + y1[c]*a1 + y2[c]*a2 + y3[c]*a3
			}
		}
	}
	for ; i < m.rows; i++ {
		yr := y[i*w : (i+1)*w]
		for j, a := range m.data[i*m.cols+lo : i*m.cols+hi] {
			out := dst[(lo+j)*w : (lo+j+1)*w]
			for c := range out {
				out[c] += yr[c] * a
			}
		}
	}
}

// MulVecInto writes m·x into dst without allocating.
func (m *Matrix) MulVecInto(dst, x []float64) { m.MulVecRangeInto(dst, x, 0, m.rows) }

// MulVecRangeInto writes rows [lo, hi) of m·x into dst without allocating,
// fanning large ranges out across the worker pool. Every block runs the
// same row kernel, so the result does not depend on the split.
func (m *Matrix) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(m, lo, hi, len(dst))
	checkMulVecLen(m, len(x), m.cols, false)
	// The size test runs first: runtime.GOMAXPROCS takes the scheduler's
	// global lock, which small products should never touch.
	if n := hi - lo; n*m.cols > denseMatvecThreshold && n >= 2 {
		if helpers := runtime.GOMAXPROCS(0) - 1; helpers > 0 {
			t := matvecTaskPool.Get().(*matvecTask)
			t.m, t.dst, t.x, t.lo = m, dst, x, lo
			runParallel(t, n, matvecRowBlock(m.cols), helpers)
			t.m, t.dst, t.x = nil, nil, nil
			matvecTaskPool.Put(t)
			return
		}
	}
	m.mulRows(dst, x, lo, hi)
}

// MulVecTInto writes mᵀ·y into dst without allocating, fanning large
// products out across the worker pool by column stripe.
func (m *Matrix) MulVecTInto(dst, y []float64) {
	checkMulVecLen(m, len(y), m.rows, true)
	checkMulVecLen(m, len(dst), m.cols, true)
	if m.rows*m.cols > denseMatvecThreshold && m.cols >= 2 {
		if helpers := runtime.GOMAXPROCS(0) - 1; helpers > 0 {
			t := matvecTTaskPool.Get().(*matvecTTask)
			t.m, t.dst, t.y = m, dst, y
			runParallel(t, m.cols, matvecRowBlock(m.rows), helpers)
			t.m, t.dst, t.y = nil, nil, nil
			matvecTTaskPool.Put(t)
			return
		}
	}
	m.tMulVecRange(dst, y, 0, m.cols)
}
