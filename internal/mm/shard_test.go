package mm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// buildCellShards splits a block-diagonal system into two cell-partition
// shards over a 6-cell domain: shard 0 owns cells 0-2, shard 1 owns 3-5.
func buildCellShards(t *testing.T) ([]Shard, *workload.Workload) {
	t.Helper()
	w0 := workload.FromMatrix("left", domain.MustShape(3), linalg.NewFromRows([][]float64{
		{1, 1, 0}, {0, 1, 1}, {1, 0, 0},
	}))
	w1 := workload.FromMatrix("right", domain.MustShape(3), linalg.NewFromRows([][]float64{
		{2, 0, 1}, {0, 1, 1},
	}))
	a0 := linalg.NewFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}})
	a1 := linalg.NewFromRows([][]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}})
	m0 := pinvMechanism(t, a0)
	m1 := pinvMechanism(t, a1)
	shards := []Shard{
		{Mechanism: m0, Project: linalg.PermuteRows(linalg.Eye(6), []int{0, 1, 2}), Workload: w0,
			Segments: []RowSegment{{Start: 0, Len: 3}}},
		{Mechanism: m1, Project: linalg.PermuteRows(linalg.Eye(6), []int{3, 4, 5}), Workload: w1,
			Segments: []RowSegment{{Start: 3, Len: 2}}},
	}
	// The full workload: block-diagonal stack of the two sub-workloads.
	full := linalg.New(5, 6)
	for i := 0; i < 3; i++ {
		copy(full.Row(i)[0:3], w0.Matrix().Row(i))
	}
	for i := 0; i < 2; i++ {
		copy(full.Row(3 + i)[3:6], w1.Matrix().Row(i))
	}
	return shards, workload.FromMatrix("full", domain.MustShape(6), full)
}

// For cell-partition shards the composite is genuinely block-diagonal:
// sharded per-shard inference must equal the monolithic joint
// least-squares answers on the same seeded noise stream, and the
// composite sensitivity must match the composite operator's.
func TestShardedEqualsMonolithicOnCellBlocks(t *testing.T) {
	shards, full := buildCellShards(t)
	sm, err := NewShardedMechanism(full, shards)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Inference() != InferSharded {
		t.Fatalf("inference = %v, want sharded", sm.Inference())
	}
	// The declared (lifted) sensitivity must equal the probed sensitivity
	// of the raw composite operator.
	raw := linalg.ComposeOps(sm.solvedOp(), linalg.StackOps(shards[0].Project, shards[1].Project))
	probed := linalg.MaxColNorm2Op(linalg.ToDense(raw))
	if math.Abs(sm.SensitivityL2()-probed) > 1e-12 {
		t.Fatalf("lifted sensitivity %g, probed %g", sm.SensitivityL2(), probed)
	}

	// Monolithic reference: exact joint least squares on the same
	// composite strategy.
	mono := pinvMechanism(t, linalg.ToDense(raw))
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	x := []float64{5, 1, 3, 2, 8, 1}
	const seed = 41
	shardedAns, err := sm.AnswerGaussian(full, x, p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	monoAns, err := mono.AnswerGaussian(full, x, p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if len(shardedAns) != len(monoAns) {
		t.Fatalf("answer lengths differ: %d vs %d", len(shardedAns), len(monoAns))
	}
	for i := range shardedAns {
		if math.Abs(shardedAns[i]-monoAns[i]) > 1e-8 {
			t.Fatalf("answer %d: sharded %g, monolithic %g", i, shardedAns[i], monoAns[i])
		}
	}
}

// For marginal-block shards every cell feeds every shard, so the
// composite sensitivity is the column-wise sum of the lifted shard norms
// — strictly more than any single shard's. The lifted norms must match a
// dense probe of the composite operator, and the release must be
// deterministic under a pinned seed.
func TestShardedMarginalBlocksSensitivityAndDeterminism(t *testing.T) {
	shape := domain.MustShape(3, 4)
	w := workload.MarginalSet("two blocks", shape, [][]int{{0}, {1}})
	blocks, ok := workload.MarginalBlocks(w, 0)
	if !ok || len(blocks) != 2 {
		t.Fatalf("blocks=%d ok=%v, want 2", len(blocks), ok)
	}
	shards := make([]Shard, len(blocks))
	for i, b := range blocks {
		mech := pinvMechanism(t, linalg.ToDense(b.Sub.Op()))
		segs := make([]RowSegment, len(b.Segments))
		for j, s := range b.Segments {
			segs[j] = RowSegment{Start: s.Start, Len: s.Len}
		}
		shards[i] = Shard{Mechanism: mech, Project: b.Project, Workload: b.Sub, Segments: segs}
	}
	sm, err := NewShardedMechanism(w, shards)
	if err != nil {
		t.Fatal(err)
	}
	raw := linalg.ToDense(sm.a)
	if got, want := sm.SensitivityL2(), raw.MaxColNorm2(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("lifted sensitivity %g, probed %g", got, want)
	}
	// Both marginal strategies are identities on their sub-domains, so the
	// composite column norm is 1+1=2 everywhere: sensitivity √2, strictly
	// above either shard alone.
	if want := math.Sqrt2; math.Abs(sm.SensitivityL2()-want) > 1e-12 {
		t.Fatalf("sensitivity %g, want √2", sm.SensitivityL2())
	}

	p := Privacy{Epsilon: 1, Delta: 1e-5}
	x := []float64{3, 0, 2, 5, 1, 1, 0, 4, 2, 2, 0, 7}
	a1, err := sm.AnswerGaussian(w, x, p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sm.AnswerGaussian(w, x, p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answer %d not deterministic under a pinned seed: %g vs %g", i, a1[i], a2[i])
		}
	}
	// Unbiasedness sanity: with ε huge the answers approach the truth.
	tight := Privacy{Epsilon: 1e6, Delta: 1e-5}
	ans, err := sm.AnswerGaussian(w, x, tight, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := w.MulQueries(x)
	for i := range want {
		if math.Abs(ans[i]-want[i]) > 1e-3 {
			t.Fatalf("answer %d = %g, want ≈%g", i, ans[i], want[i])
		}
	}
}

// Guard rails: malformed shard sets are refused, and sharded-only
// operations fail with clear errors rather than panicking.
func TestShardedMechanismValidation(t *testing.T) {
	shards, full := buildCellShards(t)
	if _, err := NewShardedMechanism(nil, shards); err == nil {
		t.Fatal("a composite without its planned workload must be refused")
	}
	if _, err := NewShardedMechanism(full, shards[:1]); err == nil {
		t.Fatal("single shard must be refused")
	}
	bad := make([]Shard, 2)
	copy(bad, shards)
	bad[1].Segments = []RowSegment{{Start: 2, Len: 2}} // overlaps shard 0
	if _, err := NewShardedMechanism(full, bad); err == nil {
		t.Fatal("overlapping segments must be refused")
	}
	sm, err := NewShardedMechanism(full, shards)
	if err != nil {
		t.Fatal(err)
	}
	nested := make([]Shard, 2)
	copy(nested, shards)
	nested[0].Mechanism = sm
	if _, err := NewShardedMechanism(full, nested); err == nil {
		t.Fatal("a shard that is itself sharded must be refused")
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	if _, err := sm.QueryVariances(full, p); err == nil {
		t.Fatal("QueryVariances must refuse sharded strategies")
	}
	other := workload.Identity(domain.MustShape(6))
	if _, err := sm.AnswerGaussian(other, make([]float64, 6), p, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("sharded mechanisms must refuse foreign workloads")
	}
}

// A sharded mechanism owns no goroutines: building, releasing and
// dropping composites leaves the process at its goroutine baseline.
func TestShardedMechanismsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	x := []float64{5, 1, 3, 2, 8, 1}
	for i := 0; i < 20; i++ {
		shards, full := buildCellShards(t)
		sm, err := NewShardedMechanism(full, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sm.AnswerGaussian(full, x, p, rand.New(rand.NewSource(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after releasing 20 sharded mechanisms, %d before", n, base)
	}
}
