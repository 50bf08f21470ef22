package mm

// Instrumentation cost pins: attaching the registry-backed stage
// timers (the server's always-on am_release_stage_seconds recording)
// must not cost the pinned release paths a single allocation — single,
// sharded, and streamed alike. Tracing is the deliberate exception
// (opt-in per release, allocates freely) and is not attached here.

import (
	"math/rand"
	"testing"

	"adaptivemm/internal/obs"
)

// testStageTimers builds registry-backed stage histograms exactly the
// way the server wires them.
func testStageTimers() *StageTimers {
	reg := obs.NewRegistry()
	return &StageTimers{
		Answer: reg.Histogram("am_release_stage_seconds", "stage latency", obs.DefTimeBuckets, obs.L("stage", "answer")),
		Noise:  reg.Histogram("am_release_stage_seconds", "stage latency", obs.DefTimeBuckets, obs.L("stage", "noise")),
		Infer:  reg.Histogram("am_release_stage_seconds", "stage latency", obs.DefTimeBuckets, obs.L("stage", "infer")),
	}
}

func TestInstrumentedReleaseZeroAlloc(t *testing.T) {
	const n = 64
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	p := Privacy{Epsilon: 0.5, Delta: 1e-5}
	for name, m := range scratchMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			m.SetStageTimers(testStageTimers())
			r := rand.New(rand.NewSource(5))
			sc := m.NewScratch()
			if _, err := m.EstimateGaussianInto(sc, x, p, r); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, err := m.EstimateGaussianInto(sc, x, p, r); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("instrumented EstimateGaussianInto allocates %v per release, want 0", allocs)
			}
		})
	}
}

func TestInstrumentedShardedReleaseZeroAlloc(t *testing.T) {
	shards, full := buildCellShards(t)
	sm, err := NewShardedMechanism(full, shards)
	if err != nil {
		t.Fatal(err)
	}
	sm.SetStageTimers(testStageTimers())
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	x := []float64{5, 1, 3, 2, 8, 1}
	r := rand.New(rand.NewSource(5))
	sc := sm.NewScratch()
	if _, err := sm.AnswerGaussianInto(sc, full, x, p, r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sm.AnswerGaussianInto(sc, full, x, p, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented sharded AnswerGaussianInto allocates %v per release, want 0", allocs)
	}
}

func TestInstrumentedStreamReleaseAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool poisoning makes the pooled stream scratch allocate; the bound is pinned in the non-race run")
	}
	shards, full := buildCellShards(t)
	sm, err := NewShardedMechanism(full, shards)
	if err != nil {
		t.Fatal(err)
	}
	sm.SetStageTimers(testStageTimers())
	p := Privacy{Epsilon: 0.5, Delta: 1e-4}
	x := []float64{5, 1, 3, 2, 8, 1}
	r := rand.New(rand.NewSource(5))
	drain := func() {
		st, err := sm.StreamRelease(full, x, p, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, ok := st.Next(); !ok {
				break
			}
		}
		st.Close()
	}
	drain()
	// The one deliberate allocation is the AnswerStream handle itself;
	// the chunks come from the pooled scratch.
	if allocs := testing.AllocsPerRun(50, drain); allocs > 1 {
		t.Fatalf("instrumented streamed release allocates %v per release, want ≤ 1", allocs)
	}
}
