// Pooled release scratch: the allocation-free release entry points.
//
// The mechanism's economics are design-once / release-many, so the
// steady-state cost per release decides serving throughput. The classic
// entry points (EstimateGaussian and friends) allocate the measurement
// vector, the estimate, and fresh solver scratch on every call;
// ReleaseScratch hoists all of it into one reusable object recycled
// through a per-mechanism sync.Pool. The Into variants return
// slices owned by the scratch — valid until the scratch's next use — and
// on the dense-pinv and CGLS paths perform zero steady-state allocations
// (pinned by TestAllocsPerRelease). The classic entry points now rent a
// scratch internally and copy the result out, so both spellings run the
// same kernels and produce bit-identical output on the same noise stream.

package mm

import (
	"fmt"
	"time"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/obs"
	"adaptivemm/internal/workload"
)

// ReleaseScratch holds every buffer one release needs: noisy strategy
// answers, the estimate, workload answers, and the
// least-squares solver workspace. The zero value is ready to use; buffers
// grow on demand and stay at their high-water mark. A scratch must not be
// used by two releases concurrently.
type ReleaseScratch struct {
	y     []float64 // noisy strategy answers (rows), or a sampled release's draws
	est   []float64 // cell estimate x̂
	ans   []float64 // workload answers
	chunk []float64 // streaming answer chunk (AnswerStream)
	ws    linalg.CGWorkspace

	// Trace, when non-nil, receives per-stage spans for this release.
	// Tracing is opt-in per release — the always-on instrumentation is
	// the (allocation-free) stage timer histograms. PutScratch clears it
	// so pooled reuse never resurrects another release's trace.
	Trace *obs.Trace
}

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// NewScratch returns a fresh unpooled release scratch for this mechanism.
// Callers that release in a loop hold one of these (or use GetScratch /
// PutScratch to share the mechanism's pool).
func (m *Mechanism) NewScratch() *ReleaseScratch { return &ReleaseScratch{} }

// GetScratch rents a scratch from the mechanism's pool.
func (m *Mechanism) GetScratch() *ReleaseScratch {
	if sc, ok := m.scratch.Get().(*ReleaseScratch); ok {
		return sc
	}
	return &ReleaseScratch{}
}

// PutScratch returns a rented scratch to the pool. Slices previously
// returned by the Into entry points become invalid.
func (m *Mechanism) PutScratch(sc *ReleaseScratch) {
	sc.Trace = nil
	m.scratch.Put(sc)
}

// EstimateGaussianInto is EstimateGaussian computing through caller-owned
// scratch: the returned estimate is sc.est, valid until sc is reused.
// Through every solver (dense pseudo-inverse, exact tree or Kronecker,
// iterative CGLS) the steady state performs zero allocations.
func (m *Mechanism) EstimateGaussianInto(sc *ReleaseScratch, x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return m.estimateInto(sc, x, gaussianNoise, p.GaussianSigma(m.sensL2), r)
}

// EstimateLaplaceInto is the scratch-based EstimateLaplace; the returned
// estimate is sc.est, valid until sc is reused.
func (m *Mechanism) EstimateLaplaceInto(sc *ReleaseScratch, x []float64, epsilon float64, r NoiseSource) ([]float64, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("mm: epsilon = %g must be positive", epsilon)
	}
	return m.estimateInto(sc, x, laplaceNoise, m.SensitivityL1()/epsilon, r)
}

// noiseKind selects the noise distribution of a release.
type noiseKind uint8

const (
	gaussianNoise noiseKind = iota // N(0, scale²) per answer
	laplaceNoise                   // Laplace(0, scale) per answer
)

// estimateInto is the release pipeline shared by the Into entry points:
// strategy answers, noise of the given kind and scale, then inference,
// each stage timed when timers or a trace are attached. A Gaussian
// release on a mechanism with a sampler draws the estimate's noise
// directly instead (see sampleInto). The estimate is sc.est.
func (m *Mechanism) estimateInto(sc *ReleaseScratch, x []float64, kind noiseKind, scale float64, r NoiseSource) ([]float64, error) {
	if len(x) != m.a.Cols() {
		return nil, fmt.Errorf("mm: data vector has %d cells, strategy expects %d", len(x), m.a.Cols())
	}
	timers := m.timers.Load()
	var t0 time.Time
	if timers != nil || sc.Trace != nil {
		t0 = time.Now()
	}
	if kind == gaussianNoise && m.sampler != nil {
		return m.sampleInto(sc, x, scale, r, timers, t0), nil
	}
	sc.y = growFloats(sc.y, m.a.Rows())
	m.answersInto(sc.y, x, sc)
	t0 = m.stageDone(sc, timers, stageAnswer, t0)
	switch kind {
	case laplaceNoise:
		addLaplace(r, sc.y, scale)
	default:
		addNormal(r, sc.y, scale)
	}
	t0 = m.stageDone(sc, timers, stageNoise, t0)
	sc.est = growFloats(sc.est, m.estimateLen())
	if err := m.inferInto(sc.est, sc.y, sc); err != nil {
		return nil, err
	}
	m.stageDone(sc, timers, stageInfer, t0)
	return sc.est, nil
}

// sampleInto releases x + σ·L·g, which has the law of the least-squares
// estimate x̂ = A⁺(Ax + z) exactly (see linalg.Sampler): g is
// Draws() standard normals, drawn scaled by σ onto a zeroed sc.y, and no
// strategy answer or solve runs. The stages keep their names: a
// zero-length answer span, noise for the draws, infer for L·g + x.
func (m *Mechanism) sampleInto(sc *ReleaseScratch, x []float64, sigma float64, r NoiseSource, timers *StageTimers, t0 time.Time) []float64 {
	m.stageRecord(sc, timers, stageAnswer, t0, t0)
	sc.y = growFloats(sc.y, m.sampler.Draws())
	clear(sc.y)
	addNormal(r, sc.y, sigma)
	t0 = m.stageDone(sc, timers, stageNoise, t0)
	sc.est = growFloats(sc.est, len(x))
	m.sampler.SampleInto(sc.est, x, sc.y, &sc.ws)
	m.stageDone(sc, timers, stageInfer, t0)
	return sc.est
}

// Stage names of the release pipeline, shared between the stage-timer
// histograms and the per-release trace spans.
const (
	stageAnswer = "answer"
	stageNoise  = "noise"
	stageInfer  = "infer"
)

// stageDone closes one pipeline stage that began at t0: it records the
// latency on the attached stage timers, appends a span to the
// release's trace when one is riding on the scratch, and returns the
// start time of the next stage. With neither attached it is two
// predictable branches and no clock read.
func (m *Mechanism) stageDone(sc *ReleaseScratch, timers *StageTimers, stage string, t0 time.Time) time.Time {
	if timers == nil && sc.Trace == nil {
		return t0
	}
	now := time.Now()
	m.stageRecord(sc, timers, stage, t0, now)
	return now
}

// stageRecord records one stage that ran from t0 to end on the attached
// stage timers and trace, if any.
func (m *Mechanism) stageRecord(sc *ReleaseScratch, timers *StageTimers, stage string, t0, end time.Time) {
	if timers != nil {
		switch stage {
		case stageAnswer:
			timers.Answer.Observe(end.Sub(t0).Seconds())
		case stageNoise:
			timers.Noise.Observe(end.Sub(t0).Seconds())
		case stageInfer:
			timers.Infer.Observe(end.Sub(t0).Seconds())
		}
	}
	sc.Trace.AddSpanRange(stage, t0, end)
}

// AnswerGaussianInto is the scratch-based AnswerGaussian; the returned
// answers are sc.ans, valid until sc is reused.
func (m *Mechanism) AnswerGaussianInto(sc *ReleaseScratch, w *workload.Workload, x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	xhat, err := m.EstimateGaussianInto(sc, x, p, r)
	if err != nil {
		return nil, err
	}
	return m.workloadAnswersInto(sc, w, xhat)
}

// workloadAnswersInto maps an estimate onto workload answers in sc.ans,
// mirroring WorkloadAnswers.
func (m *Mechanism) workloadAnswersInto(sc *ReleaseScratch, w *workload.Workload, xhat []float64) ([]float64, error) {
	if err := m.checkPlanned(w); err != nil {
		return nil, err
	}
	sc.ans = growFloats(sc.ans, w.NumQueries())
	return m.answersOf(sc.ans, w, xhat), nil
}

// answersOf writes the workload answers of the estimate xhat into dst,
// of length w.NumQueries(), and returns it: W x̂, or for a sharded
// mechanism the shard scatter over the rows [0, rows).
func (m *Mechanism) answersOf(dst []float64, w *workload.Workload, xhat []float64) []float64 {
	if m.shards != nil {
		m.shardRangeInto(dst, xhat, 0, len(dst))
		return dst
	}
	return w.MulQueriesInto(dst, xhat)
}

// strategyAnswerer is a solver that knows its strategy's structure well
// enough to answer it, A·x, faster than the operator's own product: a
// linalg.TreeSolver (one bottom-up pass) or a linalg.KronSolver (the
// forward pass over its factors' slab kernels).
type strategyAnswerer interface {
	AnswerInto(dst, x []float64, ws *linalg.CGWorkspace)
}

// answersInto writes the strategy answers A·x into dst: through the
// solver when it is a strategyAnswerer, else the operator's product.
func (m *Mechanism) answersInto(dst, x []float64, sc *ReleaseScratch) {
	if a, ok := m.solver.(strategyAnswerer); ok {
		a.AnswerInto(dst, x, &sc.ws)
		return
	}
	linalg.MulVecInto(m.a, dst, x)
}

// solvedOp is the operator the mechanism's solver inverts: the strategy,
// except for a sharded composite, whose block solver inverts the
// block-diagonal stack of the shard strategies (the projections are
// already folded into the measurements).
func (m *Mechanism) solvedOp() linalg.Operator {
	if b, ok := m.solver.(*linalg.BlockSolver); ok {
		return b.Op()
	}
	return m.a
}

// estimateLen is the length of the estimate this mechanism produces:
// the cell count, except for sharded mechanisms, whose estimate is the
// concatenation of the per-shard sub-domain estimates.
func (m *Mechanism) estimateLen() int { return m.solvedOp().Cols() }

// inferInto computes the least-squares estimate x̂ from noisy strategy
// answers y into dst (length estimateLen): one call to the mechanism's
// solver.
func (m *Mechanism) inferInto(dst, y []float64, sc *ReleaseScratch) error {
	return m.solver.SolveLSInto(dst, y, &sc.ws)
}
