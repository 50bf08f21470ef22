package mm

import (
	"math"
	"math/rand"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/workload"
)

// streamCollect drains a stream into one flat answer slice, checking
// offsets are contiguous.
func streamCollect(t *testing.T, st *AnswerStream) []float64 {
	t.Helper()
	out := make([]float64, 0, st.Rows())
	for {
		off, chunk, ok := st.Next()
		if !ok {
			break
		}
		if off != len(out) {
			t.Fatalf("chunk offset %d, want %d", off, len(out))
		}
		out = append(out, chunk...)
	}
	if len(out) != st.Rows() {
		t.Fatalf("stream yielded %d answers, want %d", len(out), st.Rows())
	}
	return out
}

// TestStreamReleaseMatchesBufferedBitExact is the streaming bit-identity
// property: on the same seeded noise stream, the chunked release must
// reassemble exactly the buffered answer vector — same noise consumption,
// same inference, same workload product bits — across every inference
// path and awkward chunk sizes (1, a prime, larger than the workload).
func TestStreamReleaseMatchesBufferedBitExact(t *testing.T) {
	const n = 32
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*7)%13) - 4
	}
	p := Privacy{Epsilon: 0.4, Delta: 1e-6}
	w := workload.FromOperator("intervals", domain.MustShape(n), linalg.NewIntervalsOp(n))
	rows := w.NumQueries()
	mechs := scratchMechanisms(t, n)
	for name, m := range mechs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				sc := m.GetScratch()
				want, err := m.AnswerGaussianInto(sc, w, x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				buffered := append([]float64(nil), want...)
				m.PutScratch(sc)
				for _, chunk := range []int{1, 7, 4096, rows} {
					st, err := m.StreamRelease(w, x, p, rand.New(rand.NewSource(seed)), chunk)
					if err != nil {
						t.Fatal(err)
					}
					got := streamCollect(t, st)
					st.Close()
					st.Close() // idempotent
					for i := range buffered {
						if math.Float64bits(got[i]) != math.Float64bits(buffered[i]) {
							t.Fatalf("seed %d chunk %d: answer[%d] = %v, buffered %v (bit mismatch)",
								seed, chunk, i, got[i], buffered[i])
						}
					}
				}
			}
		})
	}
}

// marginalShardedMechanism builds a two-shard marginal-block composite
// whose scatter segments interleave in the original row order — the
// multi-segment case the stream's segment index must route correctly.
func marginalShardedMechanism(t *testing.T) (*Mechanism, *workload.Workload) {
	t.Helper()
	shape := domain.MustShape(3, 4)
	w := workload.MarginalSet("two blocks", shape, [][]int{{0}, {1}})
	blocks, ok := workload.MarginalBlocks(w, 0)
	if !ok || len(blocks) != 2 {
		t.Fatalf("blocks=%d ok=%v, want 2", len(blocks), ok)
	}
	shards := make([]Shard, len(blocks))
	for i, b := range blocks {
		mech, err := NewMechanismInference(linalg.ToDense(b.Sub.Op()), InferDensePinv)
		if err != nil {
			t.Fatal(err)
		}
		segs := make([]RowSegment, len(b.Segments))
		for j, s := range b.Segments {
			segs[j] = RowSegment{Start: s.Start, Len: s.Len}
		}
		shards[i] = Shard{Mechanism: mech, Project: b.Project, Workload: b.Sub, Segments: segs}
	}
	sm, err := NewShardedMechanism(w, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sm, w
}

// TestStreamReleaseShardedBitExact pins the sharded streaming path —
// cell-partition (single-segment) and marginal-block (multi-segment
// interleaved scatter) composites — bit-identical to the buffered
// sharded release at every chunk size.
func TestStreamReleaseShardedBitExact(t *testing.T) {
	cellShards, cellFull := buildCellShards(t)
	cellSM, err := NewShardedMechanism(cellFull, cellShards, 0)
	if err != nil {
		t.Fatal(err)
	}
	margSM, margW := marginalShardedMechanism(t)
	cases := []struct {
		name string
		m    *Mechanism
		w    *workload.Workload
		x    []float64
	}{
		{"cell-partition", cellSM, cellFull, []float64{5, 1, 3, 2, 8, 1}},
		{"marginal-blocks", margSM, margW, []float64{3, 0, 2, 5, 1, 1, 0, 4, 2, 2, 0, 7}},
	}
	p := Privacy{Epsilon: 0.6, Delta: 1e-5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.w.NumQueries()
			for seed := int64(0); seed < 4; seed++ {
				sc := tc.m.GetScratch()
				want, err := tc.m.AnswerGaussianInto(sc, tc.w, tc.x, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				buffered := append([]float64(nil), want...)
				tc.m.PutScratch(sc)
				for _, chunk := range []int{1, 3, 7, rows} {
					st, err := tc.m.StreamRelease(tc.w, tc.x, p, rand.New(rand.NewSource(seed)), chunk)
					if err != nil {
						t.Fatal(err)
					}
					got := streamCollect(t, st)
					st.Close()
					for i := range buffered {
						if math.Float64bits(got[i]) != math.Float64bits(buffered[i]) {
							t.Fatalf("seed %d chunk %d: answer[%d] = %v, buffered %v (bit mismatch)",
								seed, chunk, i, got[i], buffered[i])
						}
					}
				}
			}
		})
	}
}

// TestStreamReleaseValidation pins the stream's refusal paths: foreign
// workloads on sharded mechanisms fail before any noise is drawn, and a
// failed stream does not leak its scratch (the next release still works).
func TestStreamReleaseValidation(t *testing.T) {
	shards, full := buildCellShards(t)
	sm, err := NewShardedMechanism(full, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	other := workload.Identity(domain.MustShape(6))
	if _, err := sm.StreamRelease(other, make([]float64, 6), p, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Fatal("sharded stream must refuse foreign workloads")
	}
	if _, err := sm.StreamRelease(full, make([]float64, 6), Privacy{}, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Fatal("stream must refuse invalid privacy")
	}
	st, err := sm.StreamRelease(full, []float64{1, 2, 3, 4, 5, 6}, p, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunkSize() != DefaultStreamChunk {
		t.Fatalf("chunkSize = %d, want default %d", st.ChunkSize(), DefaultStreamChunk)
	}
	streamCollect(t, st)
	if _, _, ok := st.Next(); ok {
		t.Fatal("exhausted stream must report ok=false")
	}
	st.Close()
}

// TestShardedReleaseZeroAlloc is the satellite regression pin: with the
// persistent shard workers and scratch-hoisted fan-out state, a warmed
// steady-state sharded release — estimate and full answer — allocates
// nothing.
func TestShardedReleaseZeroAlloc(t *testing.T) {
	shards, full := buildCellShards(t)
	sm, err := NewShardedMechanism(full, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	x := []float64{5, 1, 3, 2, 8, 1}
	r := rand.New(rand.NewSource(5))
	sc := sm.NewScratch()
	if _, err := sm.AnswerGaussianInto(sc, full, x, p, r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sm.EstimateGaussianInto(sc, x, p, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warmed sharded EstimateGaussianInto allocates %v per release, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sm.AnswerGaussianInto(sc, full, x, p, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warmed sharded AnswerGaussianInto allocates %v per release, want 0", allocs)
	}
}
