package main

import (
	"math"
	"testing"

	"adaptivemm/internal/linalg"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 2}, 2},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p90 of 1..10 is the 9th value.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %g, want 7", got)
	}
}

func TestSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {101, 90, 10}, {1000, 90, 100}, {10, 50, 5}, {0, 90, 0}, {1, 90, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if got := minSamplesFor(90); got != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", got)
	}
	if got := minSamplesFor(50); got != 20 {
		t.Errorf("minSamplesFor(50) = %d, want 20", got)
	}
}

func TestShare(t *testing.T) {
	for _, c := range []struct{ total, n int }{{30, 15}, {4, 15}, {45, 15}, {1, 1}, {6, 15}, {15, 15}, {16, 3}} {
		sum := 0
		for r := range c.n {
			k := share(c.total, r, c.n)
			if k < 0 || k > (c.total+c.n-1)/c.n {
				t.Errorf("share(%d, %d, %d) = %d: not an even spread", c.total, r, c.n, k)
			}
			if r == 0 && k < 1 {
				t.Errorf("share(%d, 0, %d) = 0: round 0 must take one", c.total, c.n)
			}
			sum += k
		}
		if sum != c.total {
			t.Errorf("shares of %d over %d rounds sum to %d", c.total, c.n, sum)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	v := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1000}
	if got := trimmedMean(v); got != 1 {
		t.Errorf("trimmedMean drops the top tenth: got %g, want 1", got)
	}
	if got := trimmedMean([]float64{2, 4}); got != 3 {
		t.Errorf("trimmedMean of two = %g, want 3", got)
	}
}

func TestUnionWithin(t *testing.T) {
	for _, c := range []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]interval{{2, 4}, {6, 9}}, 0, 10, 5},
		{[]interval{{6, 9}, {2, 4}, {3, 7}}, 0, 10, 7}, // overlaps merge
		{[]interval{{-5, 3}, {8, 20}}, 0, 10, 5},       // clipped to the window
		{[]interval{{1, 2}, {2, 3}, {5, 5}}, 0, 10, 2}, // touching and empty
		{[]interval{{0, 10}, {2, 3}}, 0, 10, 10},       // nested
		{[]interval{{11, 12}, {-3, -1}}, 0, 10, 0},     // outside
	} {
		if got := unionWithin(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionWithin(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	req := tr.add("server.request", 0, "r", 0, 100, 1)
	tr.add("mm.infer", req, "r", 10, 40, 1)
	tr.add("mm.infer", req, "r", 30, 60, 1)
	tr.add("server.serialize", req, "r", 80, 90, 1)
	self := tr.selfTimes()
	if self[0] != 40 {
		t.Errorf("request self time = %d, want 100 − (50 + 10) = 40", self[0])
	}
	if self[1] != 30 {
		t.Errorf("leaf self time = %d, want its duration 30", self[1])
	}
}

func TestReplyShape(t *testing.T) {
	good := []byte(`{"results":[{"index":0,"status":200,"answers":[1,2.5,3],"ledger":{"epsilon":0.5,"delta":1e-4}},` +
		`{"index":1,"status":200,"answers":[4,5,6],"ledger":{"epsilon":1,"delta":2e-4}}],"succeeded":2,"failed":0}` + "\n")
	s := newReplyShape(2, 3)
	if err := s.check(good, false); err != nil {
		t.Fatalf("well-formed reply rejected: %v", err)
	}
	short := []byte(`{"results":[{"index":0,"status":200,"answers":[1,2.5],"ledger":{"epsilon":0.5,"delta":1e-4}},` +
		`{"index":1,"status":200,"answers":[4,5,6],"ledger":{"epsilon":1,"delta":2e-4}}],"succeeded":2,"failed":0}` + "\n")
	if s.check(short, false) == nil {
		t.Error("a result with a missing value passed")
	}
	nan := []byte(`{"results":[{"index":0,"status":200,"answers":[1,null,3],"ledger":{"epsilon":0.5,"delta":1e-4}},` +
		`{"index":1,"status":200,"answers":[4,5,6],"ledger":{"epsilon":1,"delta":2e-4}}],"succeeded":2,"failed":0}` + "\n")
	if s.check(nan, false) == nil {
		t.Error("a non-finite value passed")
	}
	failed := []byte(`{"results":[],"succeeded":1,"failed":1}` + "\n")
	if s.check(failed, false) == nil {
		t.Error("a reply with a failed release passed")
	}
}

func TestEchoedTraces(t *testing.T) {
	body := []byte(`{"results":[{"index":0,"status":200,"answers":[1],"ledger":{"epsilon":0.5,"delta":1e-4,` +
		`"trace":{"id":"a1","parent":"p","spans":[{"name":"answer","startMicros":1,"endMicros":3},{"name":"serialize","startMicros":9,"endMicros":12}]}}},` +
		`{"index":1,"status":200,"answers":[2],"ledger":{"epsilon":1,"delta":2e-4,` +
		`"trace":{"id":"b2","parent":"p","spans":[{"name":"infer","startMicros":2,"endMicros":5}]}}}],"succeeded":2,"failed":0}`)
	ets, err := echoedTraces(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ets) != 2 || ets[0].ID != "a1" || ets[1].ID != "b2" || ets[0].Parent != "p" {
		t.Fatalf("echoed traces = %+v", ets)
	}
	if sp := ets[0].Spans[1]; sp.Name != "serialize" || sp.Start != 9 || sp.End != 12 {
		t.Errorf("second span of the first trace = %+v", sp)
	}
}

func TestProductBytes(t *testing.T) {
	m := linalg.New(3, 4)
	if got, exact := productBytes(m); got != 8*(12+3+4) || !exact {
		t.Errorf("dense 3x4: %g bytes (exact %t)", got, exact)
	}
	// Two dense factors 2x3 and 5x7: the first pass maps 3·7 cells to 2·7,
	// the second 2·7 to 2·5.
	k := linalg.NewKronOp(linalg.New(2, 3), linalg.New(5, 7))
	want := float64(8*(2*3) + 8*(21+14) + 8*(5*7) + 8*(14+10))
	if got, exact := productBytes(k); got != want || !exact {
		t.Errorf("kron: %g bytes (exact %t), want %g", got, exact, want)
	}
}
