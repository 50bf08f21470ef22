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

// MulVecInto writes m·x into dst without allocating.
func (m *Matrix) MulVecInto(dst, x []float64) { m.MulVecRangeInto(dst, x, 0, m.rows) }

// MulVecRangeInto writes rows [lo, hi) of m·x into dst without allocating,
// fanning large ranges out across the worker pool. Every block runs the
// same row kernel, so the result does not depend on the split.
func (m *Matrix) MulVecRangeInto(dst, x []float64, lo, hi int) {
	checkRowRange(m, lo, hi, len(dst))
	checkMulVecLen(m, len(x), m.cols, false)
	n := hi - lo
	if helpers := runtime.GOMAXPROCS(0) - 1; helpers > 0 && n*m.cols > denseMatvecThreshold && n >= 2 {
		t := matvecTaskPool.Get().(*matvecTask)
		t.m, t.dst, t.x, t.lo = m, dst, x, lo
		runParallel(t, n, matvecRowBlock(m.cols), helpers)
		t.m, t.dst, t.x = nil, nil, nil
		matvecTaskPool.Put(t)
		return
	}
	m.mulRows(dst, x, lo, hi)
}

// MulVecTInto writes mᵀ·y into dst without allocating, fanning large
// products out across the worker pool by column stripe.
func (m *Matrix) MulVecTInto(dst, y []float64) {
	checkMulVecLen(m, len(y), m.rows, true)
	checkMulVecLen(m, len(dst), m.cols, true)
	work := m.rows * m.cols
	if helpers := runtime.GOMAXPROCS(0) - 1; helpers > 0 && work > denseMatvecThreshold && m.cols >= 2 {
		t := matvecTTaskPool.Get().(*matvecTTask)
		t.m, t.dst, t.y = m, dst, y
		runParallel(t, m.cols, matvecRowBlock(m.rows), helpers)
		t.m, t.dst, t.y = nil, nil, nil
		matvecTTaskPool.Put(t)
		return
	}
	m.tMulVecRange(dst, y, 0, m.cols)
}
