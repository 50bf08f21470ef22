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

// DenseInferenceCap is the denseCap the mechanism passes to
// linalg.NewSolver: the largest cell count for which a dense strategy
// matrix, or a factor of a Kronecker strategy, gets an eagerly
// materialized pseudo-inverse. The pseudo-inverse costs O(n³) once and
// O(m·n) per release; past the cap (or for any other structured
// operator) inference runs matrix-free, through an exact solver or CGLS.
const DenseInferenceCap = 1024

// Inference labels the kind of a mechanism's least-squares solver, which
// derives the cell estimate x̂ = A⁺y from noisy strategy answers. Every
// kind computes the same estimate; linalg.NewSolver picks the kind once
// per mechanism. The values are plan-store wire bytes; 0 and 3 (the
// retired automatic choice and normal-CG method) are not reused.
type Inference int

const (
	// InferDensePinv answers each release with one m×n product through
	// the Moore-Penrose pseudo-inverse, materialized once (O(n³)) for a
	// dense strategy within DenseInferenceCap.
	InferDensePinv Inference = 1
	// InferCGLS solves each release matrix-free: in one pass when the
	// strategy has an exact solver (an interval tree, a Kronecker product
	// of solvable factors, or a factored principal-vectors eigenbasis),
	// else by conjugate gradients on the factored normal equations.
	InferCGLS Inference = 2
	// InferSharded solves a sharded composite block by block through a
	// linalg.BlockSolver: the measurement vector is split at shard
	// boundaries, each slice is solved by that shard's own solver, and
	// the estimate is the concatenation of the per-shard sub-domain
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
		return fmt.Sprintf("inference(%d)", int(i))
	}
}

// Mechanism is a prepared instance of the matrix mechanism for one
// strategy operator. Its least-squares solver is fixed at construction:
// by linalg.NewSolver's rule in NewMechanism, as a pseudo-inverse
// rehydrated by NewMechanismPrepared, or as a linalg.BlockSolver over the
// shards' solvers in NewShardedMechanism.
type Mechanism struct {
	a      linalg.Operator
	solver linalg.LSSolver
	sensL2 float64

	scratch sync.Pool // recycled *ReleaseScratch

	// Sharded (composite) mechanisms only — see NewShardedMechanism.
	shards  []Shard
	planned *workload.Workload // the one workload the composite answers
	scatter []scatterSeg       // the shards' row segments, sorted by row

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

// NewMechanism prepares a mechanism for a strategy operator with the
// solver linalg.NewSolver picks for it.
func NewMechanism(a linalg.Operator) (*Mechanism, error) {
	solver, err := linalg.NewSolver(a, DenseInferenceCap)
	if err != nil {
		return nil, err
	}
	return &Mechanism{a: a, solver: solver, sensL2: linalg.MaxColNorm2Op(a)}, nil
}

// NewMechanismPrepared rebuilds a mechanism from a strategy operator and
// its persisted pseudo-inverse, skipping the O(n³) preparation; with a
// nil pinv it is NewMechanism. A pseudo-inverse of the wrong shape is
// refused: a stale one would silently corrupt every release.
func NewMechanismPrepared(a linalg.Operator, pinv *linalg.Matrix) (*Mechanism, error) {
	if pinv == nil {
		return NewMechanism(a)
	}
	if pinv.Rows() != a.Cols() || pinv.Cols() != a.Rows() {
		return nil, fmt.Errorf("mm: persisted pseudo-inverse is %dx%d for a %dx%d strategy",
			pinv.Rows(), pinv.Cols(), a.Rows(), a.Cols())
	}
	return &Mechanism{a: a, solver: &linalg.PinvSolver{Pinv: pinv}, sensL2: linalg.MaxColNorm2Op(a)}, nil
}

// PreparedPinv returns the precomputed dense pseudo-inverse backing
// InferDensePinv, or nil — the artifact the plan store persists so a
// rehydrated mechanism skips the O(n³) preparation.
func (m *Mechanism) PreparedPinv() *linalg.Matrix {
	if p, ok := m.solver.(*linalg.PinvSolver); ok {
		return p.Pinv
	}
	return nil
}

// PreparedGram returns nil: no inference method keeps a Gram matrix. It
// stays only for the benchmark module's caller, which the next benchmark
// change drops along with this method.
func (m *Mechanism) PreparedGram() *linalg.Matrix { return nil }

// Solver returns the mechanism's least-squares solver: for a sharded
// composite, the linalg.BlockSolver over its shards' solvers.
func (m *Mechanism) Solver() linalg.LSSolver { return m.solver }

// Inference returns the label of the mechanism's solver kind.
func (m *Mechanism) Inference() Inference {
	switch m.solver.(type) {
	case *linalg.BlockSolver:
		return InferSharded
	case *linalg.PinvSolver:
		return InferDensePinv
	}
	return InferCGLS
}

// Strategy returns the strategy operator.
func (m *Mechanism) Strategy() linalg.Operator { return m.a }

// StrategyDense returns the strategy as a dense matrix, materializing a
// structured operator when rows×cols is affordable.
func (m *Mechanism) StrategyDense() (*linalg.Matrix, error) { return densify(m.a) }

// densify returns a as a dense matrix: itself when that is its
// representation, else materialized when rows×cols is affordable.
func densify(a linalg.Operator) (*linalg.Matrix, error) {
	if d, ok := a.(*linalg.Matrix); ok {
		return d, nil
	}
	if a.Cols() > 0 && a.Rows() > linalg.MaterializeCap/a.Cols() {
		return nil, fmt.Errorf("mm: strategy too large to materialize (%d x %d)", a.Rows(), a.Cols())
	}
	return linalg.ToDense(a), nil
}

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
// answer only the exact workload they were planned for.
func (m *Mechanism) WorkloadAnswers(w *workload.Workload, xhat []float64) ([]float64, error) {
	if err := m.checkPlanned(w); err != nil {
		return nil, err
	}
	return m.answersOf(make([]float64, w.NumQueries()), w, xhat), nil
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
	addNormal(r, y, sigma)
	return y, nil
}

// minLaplaceLogArg is the smallest value the log argument in the inverse
// CDF is allowed to take: the spacing of Float64 draws (2⁻⁵³), i.e. the
// smallest nonzero value 1+2u can reach. Clamping there keeps the sample
// at the magnitude of the rarest representable draw instead of −Inf.
const minLaplaceLogArg = 0x1p-53

// laplace draws one Laplace(0, b) sample by inverse CDF.
func laplace(r NoiseSource, b float64) float64 { return laplaceAt(r.Float64(), b) }

// laplaceAt is the inverse Laplace(0, b) CDF at the uniform draw f in
// [0,1).
func laplaceAt(f, b float64) float64 {
	u := f - 0.5
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
