package mm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/obs"
	"adaptivemm/internal/workload"
)

// DenseInferenceCap is the largest cell count for which a dense strategy
// matrix, or a factor of a Kronecker strategy, gets an eagerly
// materialized pseudo-inverse. The pseudo-inverse costs O(n³) once and
// O(m·n) per release; past the cap (or for any structured operator)
// inference runs matrix-free, through an exact solver or CGLS.
const DenseInferenceCap = 1024

// Inference names a least-squares inference method for deriving the cell
// estimate x̂ from noisy strategy answers. The planner picks one per plan;
// InferAuto preserves the representation-driven default. The values are
// plan-store wire bytes; 3, the retired normal-CG method, is not reused.
type Inference int

const (
	// InferAuto selects dense-pinv for small dense strategies and CGLS
	// otherwise — the historical automatic choice.
	InferAuto Inference = 0
	// InferDensePinv materializes the Moore-Penrose pseudo-inverse once
	// (O(n³)) and answers each release with one m×n product — the lowest
	// per-release latency. Structured operators are densified when they
	// fit the materialization cap.
	InferDensePinv Inference = 1
	// InferCGLS solves each release matrix-free: in one pass when the
	// strategy has an exact solver (linalg.NewExactSolver), else by
	// conjugate gradients on the factored normal equations.
	InferCGLS Inference = 2
	// InferSharded answers per shard and concatenates: the measurement
	// vector is split at shard boundaries, each slice is solved by that
	// shard's own prepared inference method (with bounded parallelism),
	// and the estimate is the concatenation of the per-shard sub-domain
	// estimates. Only NewShardedMechanism produces this method.
	InferSharded Inference = 4
)

// String returns the wire name used in plans and server responses.
func (i Inference) String() string {
	switch i {
	case InferDensePinv:
		return "dense-pinv"
	case InferCGLS:
		return "cgls"
	case InferSharded:
		return "sharded"
	default:
		return "auto"
	}
}

// Mechanism is a prepared instance of the matrix mechanism for one
// strategy operator. The inference path (see Inference) is fixed at
// construction: automatically by representation and size in
// NewMechanismOp, or explicitly by the planner in NewMechanismInference.
type Mechanism struct {
	a         linalg.Operator
	dense     *linalg.Matrix  // a as dense, when that is its representation
	apinv     *linalg.Matrix  // dense pseudo-inverse for InferDensePinv
	exact     linalg.LSSolver // exact solver (interval tree or Kronecker) for InferCGLS
	inference Inference       // resolved method, never InferAuto
	sensL2    float64

	scratch sync.Pool // recycled *ReleaseScratch

	// Sharded (composite) mechanisms only — see NewShardedMechanism.
	shards    []Shard
	shardPar  int                // bounded shard-inference parallelism
	blockOnly linalg.Operator    // blockdiag(shard strategies), no projections
	planned   *workload.Workload // the one workload the composite answers
	shardOnce sync.Once          // starts the persistent shard workers
	shardCh   chan shardJob      // feeds the persistent shard workers

	// Streaming releases (see stream.go): the scatter segments flattened
	// into one sorted row index, built lazily on the first StreamRelease.
	streamOnce sync.Once
	streamSegs []streamSeg

	l1Once sync.Once
	sensL1 float64

	// timers, when set, receives per-stage release latencies
	// (answer → noise → infer). Atomic so the server can attach its
	// registry-backed histograms after construction without racing
	// in-flight releases; recording is atomic-only, so the pinned
	// zero-alloc release path stays zero-alloc with timers attached.
	timers atomic.Pointer[StageTimers]
}

// StageTimers carries the release pipeline's per-stage latency
// histograms. All three fields must be non-nil when attached.
type StageTimers struct {
	Answer *obs.Histogram // strategy answers A·x
	Noise  *obs.Histogram // CSPRNG draws + noise add
	Infer  *obs.Histogram // least-squares inference
}

// SetStageTimers attaches (or, with nil, detaches) the per-stage
// latency histograms. Safe against concurrent releases.
func (m *Mechanism) SetStageTimers(t *StageTimers) { m.timers.Store(t) }

// NewMechanism prepares a mechanism for a dense strategy matrix. It is
// NewMechanismOp with the dense representation.
func NewMechanism(a *linalg.Matrix) (*Mechanism, error) {
	return NewMechanismOp(a)
}

// NewMechanismOp prepares a mechanism for any strategy operator, selecting
// the inference path by representation and size.
func NewMechanismOp(a linalg.Operator) (*Mechanism, error) {
	return NewMechanismInference(a, InferAuto)
}

// NewMechanismInference prepares a mechanism with an explicit inference
// method — the planner's entry point, so the mechanism no longer guesses.
// InferDensePinv densifies structured operators under the materialization
// cap and errors past it; InferCGLS looks for an exact solver.
func NewMechanismInference(a linalg.Operator, inf Inference) (*Mechanism, error) {
	m := &Mechanism{a: a, sensL2: linalg.MaxColNorm2Op(a)}
	if d, ok := a.(*linalg.Matrix); ok {
		m.dense = d
	}
	if inf == InferAuto {
		if m.dense != nil && a.Cols() <= DenseInferenceCap {
			inf = InferDensePinv
		} else {
			inf = InferCGLS
		}
	}
	switch inf {
	case InferDensePinv:
		d := m.dense
		if d == nil {
			if a.Cols() > 0 && a.Rows() > linalg.MaterializeCap/a.Cols() {
				return nil, fmt.Errorf("mm: strategy too large to materialize for dense-pinv inference (%d x %d)", a.Rows(), a.Cols())
			}
			d = linalg.ToDense(a)
			m.dense = d
		}
		pinv, err := linalg.PseudoInverse(d)
		if err != nil {
			return nil, err
		}
		m.apinv = pinv
	case InferCGLS:
		// Nothing dense to prepare; an interval forest or a Kronecker
		// product of factors with exact solvers gets its one-pass solver,
		// anything else keeps pure CGLS.
		m.exact, _ = linalg.NewExactSolver(a, DenseInferenceCap)
	case InferSharded:
		return nil, fmt.Errorf("mm: sharded inference requires per-shard mechanisms; use NewShardedMechanism")
	default:
		return nil, fmt.Errorf("mm: unknown inference method %d", inf)
	}
	m.inference = inf
	return m, nil
}

// NewMechanismPrepared rebuilds a mechanism from a strategy operator, its
// resolved inference method and, for InferDensePinv, the persisted
// pseudo-inverse, skipping the O(n³) preparation NewMechanismInference
// would redo; a nil one is recomputed. One with the wrong shape is
// refused: a stale pseudo-inverse would silently corrupt every release.
func NewMechanismPrepared(a linalg.Operator, inf Inference, pinv *linalg.Matrix) (*Mechanism, error) {
	if inf != InferDensePinv || pinv == nil {
		return NewMechanismInference(a, inf)
	}
	if pinv.Rows() != a.Cols() || pinv.Cols() != a.Rows() {
		return nil, fmt.Errorf("mm: persisted pseudo-inverse is %dx%d for a %dx%d strategy",
			pinv.Rows(), pinv.Cols(), a.Rows(), a.Cols())
	}
	m := &Mechanism{a: a, sensL2: linalg.MaxColNorm2Op(a), apinv: pinv, inference: inf}
	if d, ok := a.(*linalg.Matrix); ok {
		m.dense = d
	}
	return m, nil
}

// PreparedPinv returns the precomputed dense pseudo-inverse backing
// InferDensePinv, or nil — the artifact the plan store persists so a
// rehydrated mechanism skips the O(n³) preparation.
func (m *Mechanism) PreparedPinv() *linalg.Matrix { return m.apinv }

// PreparedGram returns nil: no inference method keeps a Gram matrix. It
// stays only for the benchmark module's caller, which the next benchmark
// change drops along with this method.
func (m *Mechanism) PreparedGram() *linalg.Matrix { return nil }

// Inference returns the resolved inference method.
func (m *Mechanism) Inference() Inference { return m.inference }

// Strategy returns the strategy operator.
func (m *Mechanism) Strategy() linalg.Operator { return m.a }

// StrategyDense returns the strategy as a dense matrix, materializing a
// structured operator when rows×cols is affordable.
func (m *Mechanism) StrategyDense() (*linalg.Matrix, error) {
	if m.dense != nil {
		return m.dense, nil
	}
	if m.a.Cols() > 0 && m.a.Rows() > linalg.MaterializeCap/m.a.Cols() {
		return nil, fmt.Errorf("mm: strategy too large to materialize (%d x %d)", m.a.Rows(), m.a.Cols())
	}
	return linalg.ToDense(m.a), nil
}

// MatrixFree reports whether inference runs matrix-free (an exact solver
// or CGLS) instead of through a materialized pseudo-inverse.
func (m *Mechanism) MatrixFree() bool { return m.apinv == nil }

// SensitivityL2 returns ‖A‖₂.
func (m *Mechanism) SensitivityL2() float64 { return m.sensL2 }

// SensitivityL1 returns ‖A‖₁. For structured operators without an analytic
// L1 column-norm form it is computed on first use by probing columns.
func (m *Mechanism) SensitivityL1() float64 {
	m.l1Once.Do(func() { m.sensL1 = linalg.MaxColNormL1Op(m.a) })
	return m.sensL1
}

// infer computes the least-squares estimate x̂ from noisy strategy answers
// y through the mechanism's resolved inference method. For sharded
// mechanisms the estimate is the concatenation of the per-shard
// sub-domain estimates. It is the allocating spelling of inferInto.
func (m *Mechanism) infer(y []float64) ([]float64, error) {
	out := make([]float64, m.estimateLen())
	sc := m.GetScratch()
	err := m.inferInto(out, y, sc)
	m.PutScratch(sc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateGaussian runs one (ε,δ)-differentially private release: it
// answers the strategy queries with the Gaussian mechanism and returns the
// least-squares estimate x̂ of the data vector (steps 1–2 of Prop. 3's
// three-step description). Workload answers are then consistent linear
// functions of x̂. For sharded mechanisms the estimate is the
// concatenation of the per-shard sub-domain estimates; use
// WorkloadAnswers (or AnswerGaussian) to map it onto workload answers.
func (m *Mechanism) EstimateGaussian(x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	sc := m.GetScratch()
	defer m.PutScratch(sc)
	est, err := m.EstimateGaussianInto(sc, x, p, r)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), est...), nil
}

// EstimateLaplace is the pure ε-differential privacy analogue using Laplace
// noise calibrated to the L1 sensitivity of the strategy.
func (m *Mechanism) EstimateLaplace(x []float64, epsilon float64, r NoiseSource) ([]float64, error) {
	sc := m.GetScratch()
	defer m.PutScratch(sc)
	est, err := m.EstimateLaplaceInto(sc, x, epsilon, r)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), est...), nil
}

// AnswerGaussian answers a workload in one shot: private estimate followed
// by W x̂ (step 3 of Prop. 3). The workload answers go through its
// operator, so structured workloads of millions of queries are answered
// without materializing anything. Sharded mechanisms answer per shard and
// scatter the answers back into the workload's row order; they only
// answer the workload they were planned for.
func (m *Mechanism) AnswerGaussian(w *workload.Workload, x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	sc := m.GetScratch()
	defer m.PutScratch(sc)
	ans, err := m.AnswerGaussianInto(sc, w, x, p, r)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), ans...), nil
}

// WorkloadAnswers maps a private estimate produced by this mechanism onto
// workload answers: W x̂ for ordinary mechanisms, per-shard sub-workload
// answers scattered into the original row order for sharded ones (whose
// estimates are concatenated sub-domain estimates). Sharded mechanisms
// answer only the exact workload they were planned for — the shard row
// segments are meaningless for any other — so a different workload is
// refused even when its query count happens to match.
func (m *Mechanism) WorkloadAnswers(w *workload.Workload, xhat []float64) ([]float64, error) {
	if m.shards == nil {
		return w.MulQueries(xhat), nil
	}
	if m.planned != nil && w != m.planned {
		return nil, fmt.Errorf("mm: sharded mechanism answers only the workload it was planned for (%q); answer %q with its own plan",
			m.planned.Name(), w.Name())
	}
	if w.NumQueries() != m.totalShardQueries() {
		return nil, fmt.Errorf("mm: sharded mechanism answers only its planned workload (%d queries), got one with %d",
			m.totalShardQueries(), w.NumQueries())
	}
	return m.shardAnswers(xhat), nil
}

// Gaussian is the plain Gaussian mechanism of Prop. 2: independent noise
// scaled to the workload's own L2 sensitivity, with no strategy or
// inference. It is the baseline the matrix mechanism improves on.
func Gaussian(w *workload.Workload, x []float64, p Privacy, r NoiseSource) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sigma := p.GaussianSigma(w.SensitivityL2())
	y := w.MulQueries(x)
	for i := range y {
		y[i] += sigma * r.NormFloat64()
	}
	return y, nil
}

// minLaplaceLogArg is the smallest value the log argument in the inverse
// CDF is allowed to take: the spacing of Float64 draws (2⁻⁵³), i.e. the
// smallest nonzero value 1+2u can reach. Clamping there keeps the sample
// at the magnitude of the rarest representable draw instead of −Inf.
const minLaplaceLogArg = 0x1p-53

// laplace draws one Laplace(0, b) sample by inverse CDF.
func laplace(r NoiseSource, b float64) float64 {
	u := r.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	// Float64 can return exactly 0, making u = −0.5 and the log argument
	// 0: the sample would be −Inf and corrupt the whole least-squares
	// estimate. Clamp to the boundary of the generator's support.
	arg := 1 + 2*u
	if arg < minLaplaceLogArg {
		arg = minLaplaceLogArg
	}
	return b * math.Log(arg)
}
