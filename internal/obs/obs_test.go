package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecordZeroAlloc is the allocation regression pin for the metric
// primitives: the instrumentation rides inside the pinned zero-alloc
// release hot path, so recording on a counter, gauge or histogram must
// not allocate once the series is registered.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("am_test_total", "test counter", L("route", "answer"))
	g := r.Gauge("am_test_gauge", "test gauge")
	h := r.Histogram("am_test_seconds", "test histogram", DefTimeBuckets)
	t0 := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(7)
		g.Add(-1)
		h.Observe(0.003)
		h.ObserveSince(t0)
	}); allocs != 0 {
		t.Fatalf("recording allocates %v per run, want 0", allocs)
	}
}

// TestCounterGaugeValues checks the trivial read-back contracts.
func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("am_v_total", "v")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("am_v_total", "v"); again != c {
		t.Fatal("re-registering the same series returned a different counter")
	}
	g := r.Gauge("am_v_gauge", "v")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

// TestHistogramQuantile checks the interpolated quantile against a
// uniform fill: 1000 samples spread evenly over (0, 1] should put p50
// near 0.5 and p99 near 0.99.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	h := NewHistogram(bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if s := h.Sum(); math.Abs(s-500.5) > 1e-9 {
		t.Fatalf("sum = %v, want 500.5", s)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 0.5, 0.01},
		{0.95, 0.95, 0.01},
		{0.99, 0.99, 0.01},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%v = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	if !math.IsNaN(NewHistogram(bounds).Quantile(0.5)) {
		t.Error("quantile of an empty histogram is not NaN")
	}
	// Values past the last bound land in +Inf and clamp to the last
	// finite bound.
	h2 := NewHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h2.Observe(100)
	}
	if got := h2.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
}

// TestSeriesCapDropped: a family past maxSeriesPerFamily refuses new
// series, counts the refusal, and still hands back a usable value.
func TestSeriesCapDropped(t *testing.T) {
	r := NewRegistry()
	var last *Counter
	for i := 0; i < maxSeriesPerFamily+5; i++ {
		last = r.Counter("am_capped_total", "capped", L("v", string(rune('a'+i%26))+string(rune('a'+i/26)))) //lint:allow obscard cardinality-cap test deliberately registers dynamic label values
	}
	if last == nil {
		t.Fatal("over-cap registration returned nil")
	}
	last.Inc() // must not panic
	if d := r.DroppedSeries(); d != 5 {
		t.Fatalf("dropped series = %d, want 5", d)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("am_obs_dropped_series_total"); !ok || v != 5 {
		t.Fatalf("am_obs_dropped_series_total = %v (ok=%v), want 5", v, ok)
	}
}

// TestWriteTextParseRoundTrip registers one family of each kind (plus
// a collect-at-scrape family), renders the exposition and re-parses
// it — the parser validation is the same check the CI bench-smoke job
// performs against a live scrape.
func TestWriteTextParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("am_rt_requests_total", "requests", L("route", "answer"), L("code", "2xx"))
	c.Add(3)
	g := r.Gauge("am_rt_in_flight", "in flight")
	g.Set(2)
	h := r.Histogram("am_rt_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.004)
	h.Observe(0.05)
	h.Observe(7)
	r.GaugeFunc("am_rt_budget", "per-dataset budget", func(emit func(v float64, labels ...Label)) {
		emit(0.25, L("dataset", "med\"ical\n"))
		emit(0.75, L("dataset", "census"))
	})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	exp, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatalf("self-emitted exposition does not parse: %v\n%s", err, page)
	}
	if got := exp.Types["am_rt_seconds"]; got != "histogram" {
		t.Fatalf("am_rt_seconds TYPE = %q, want histogram", got)
	}
	if v, ok := exp.Value("am_rt_requests_total", "route", "answer", "code", "2xx"); !ok || v != 3 {
		t.Fatalf("counter sample = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := exp.Value("am_rt_in_flight"); !ok || v != 2 {
		t.Fatalf("gauge sample = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := exp.Value("am_rt_seconds_bucket", "le", "0.01"); !ok || v != 1 {
		t.Fatalf("le=0.01 bucket = %v (ok=%v), want cumulative 1", v, ok)
	}
	if v, ok := exp.Value("am_rt_seconds_bucket", "le", "+Inf"); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := exp.Value("am_rt_seconds_count"); !ok || v != 3 {
		t.Fatalf("_count = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := exp.Value("am_rt_seconds_sum"); !ok || math.Abs(v-7.054) > 1e-9 {
		t.Fatalf("_sum = %v (ok=%v), want 7.054", v, ok)
	}
	if v, ok := exp.Value("am_rt_budget", "dataset", "med\"ical\n"); !ok || v != 0.25 {
		t.Fatalf("escaped label round-trip = %v (ok=%v), want 0.25", v, ok)
	}
}

// TestParseTextRejectsMalformed: samples without a declared TYPE, bad
// values and broken label blocks are parse errors, not silence.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"am_untyped_total 3\n",
		"# TYPE am_x counter\nam_x notanumber\n",
		"# TYPE am_x counter\nam_x{l=\"unterminated 3\n",
		"# TYPE am_x counter\nam_x{9bad=\"v\"} 3\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", bad)
		}
	}
}

// TestBucketQuantileFromParsedPage is the scrape path end to end:
// scrape a histogram, rebuild per-bucket counts from the cumulative
// _bucket samples, and recover the quantile.
func TestBucketQuantileFromParsedPage(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.01, 0.1, 1}
	h := r.Histogram("am_bq_seconds", "bq", bounds)
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(bounds)+1)
	var prev float64
	for i, b := range bounds {
		v, ok := exp.Value("am_bq_seconds_bucket", "le", formatLE(b))
		if !ok {
			t.Fatalf("missing bucket le=%v", b)
		}
		counts[i] = int64(v - prev)
		prev = v
	}
	inf, _ := exp.Value("am_bq_seconds_bucket", "le", "+Inf")
	counts[len(bounds)] = int64(inf - prev)
	p99 := BucketQuantile(0.99, bounds, counts)
	if p99 < 0.1 || p99 > 1 {
		t.Fatalf("parsed p99 = %v, want within (0.1, 1]", p99)
	}
}

// TestRegistryRace hammers registration, recording, collect callbacks
// and scrapes concurrently; run under -race this is the concurrency
// contract for the whole registry.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("am_race_total", "race")
	h := r.Histogram("am_race_seconds", "race", DefTimeBuckets)
	r.GaugeFunc("am_race_gauge", "race", func(emit func(v float64, labels ...Label)) {
		emit(float64(c.Value()))
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
					_ = h.Quantile(0.5)
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
