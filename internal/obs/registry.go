// Package obs is the engine's dependency-free observability core: a
// metrics registry (counters, gauges, fixed-bucket histograms) whose
// record operations are single atomic instructions — safe inside the
// pinned zero-allocation release path — plus a Prometheus text
// exposition encoder (text.go), a small exposition parser for
// scrapers and tests, and a bounded per-release trace ring (trace.go).
//
// Cardinality is a first-class constraint: every series is registered
// up front with a fixed label set, a family refuses new series past a
// hard cap (counted in am_obs_dropped_series_total), and the amlint
// obscard analyzer enforces compile-time-constant metric names and
// label values at every registration call site.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair of a metric series. Label values must
// come from a bounded set fixed at registration time; the registry has
// no concept of recording "with" ad-hoc labels.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label at a registration site.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind discriminates the three series types of a family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing integer. The zero value is
// ready to use, detached from any registry; Registry.Counter creates
// one that the /metrics exposition reports.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// monotone; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer that can go up and down. The zero value is ready
// to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: one binary search over the (immutable) bounds, one
// atomic bucket increment, one CAS loop for the float sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf last
	counts []atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefTimeBuckets is the default latency bucket layout, in seconds,
// spanning 10µs to 10s — wide enough for an in-memory release on one
// end and a cold sharded design on the other.
var DefTimeBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// NewHistogram builds a detached histogram over the given ascending
// bucket upper bounds (a trailing +Inf bucket is implicit). The bounds
// slice is copied. Panics if bounds are empty or not strictly
// ascending — histogram construction is a startup-time act.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if !(b[i] > b[i-1]) {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) => +Inf
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot copies the per-bucket (non-cumulative) counts.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the bucket holding the target rank, the same
// estimate a Prometheus histogram_quantile() would produce. Returns
// NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	return BucketQuantile(q, h.bounds, h.snapshot())
}

// BucketQuantile computes the interpolated q-quantile of a fixed-bucket
// histogram given the ascending bucket upper bounds and per-bucket
// (non-cumulative) counts, where len(counts) == len(bounds)+1 and the
// final count is the +Inf bucket. Histogram.Quantile applies it to a
// live histogram; it applies equally to counts rebuilt from a scraped
// exposition (see ParseText).
func BucketQuantile(q float64, bounds []float64, counts []int64) float64 {
	if len(counts) != len(bounds)+1 {
		return math.NaN()
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(bounds) {
			// Target falls in the +Inf bucket: the best point
			// estimate is the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		within := rank - float64(cum-c)
		return lo + (hi-lo)*(within/float64(c))
	}
	return bounds[len(bounds)-1]
}

// series is one labeled instance inside a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []float64
	series  []*series
	byKey   map[string]*series
	collect func(emit func(v float64, labels ...Label))
}

// maxSeriesPerFamily bounds the series count of any one family. A
// family that hits the cap stops admitting new series (recorded in
// am_obs_dropped_series_total) rather than growing without bound.
const maxSeriesPerFamily = 128

// Registry owns a set of metric families and renders them as a
// Prometheus text exposition. Registration takes a lock and may
// allocate; recording on the returned Counter/Gauge/Histogram values
// never does either.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	dropped  Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// DroppedSeries reports how many series registrations were refused by
// the per-family cardinality cap.
func (r *Registry) DroppedSeries() int64 { return r.dropped.Value() }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelKey(labels []Label) string {
	key := ""
	for _, l := range labels {
		key += l.Name + "\x01" + l.Value + "\x02"
	}
	return key
}

// ensureFamily fetches or creates the family, panicking on a
// name/kind/help conflict — registration is startup-time and a
// conflict is a programming error the tests must catch.
func (r *Registry) ensureFamily(name, help string, kind Kind, bounds []float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different kind")
	}
	return f
}

// register adds (or finds) a series under name with the given labels.
func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []Label) *series {
	for _, l := range labels {
		if !validName(l.Name) {
			panic("obs: invalid label name " + l.Name + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensureFamily(name, help, kind, bounds)
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	if len(f.series) >= maxSeriesPerFamily {
		r.dropped.Inc()
		return nil
	}
	owned := make([]Label, len(labels))
	copy(owned, labels)
	s := &series{labels: owned}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Counter registers (or fetches) a counter series. Past the family
// cardinality cap it returns a detached counter so call sites keep
// working; the refusal is visible in am_obs_dropped_series_total.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, KindCounter, nil, labels)
	if s == nil {
		return new(Counter)
	}
	if s.c == nil {
		s.c = new(Counter)
	}
	return s.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, KindGauge, nil, labels)
	if s == nil {
		return new(Gauge)
	}
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// Histogram registers (or fetches) a histogram series over the given
// bucket bounds. All series of one family share the first-registered
// bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, KindHistogram, bounds, labels)
	if s == nil {
		return NewHistogram(bounds)
	}
	if s.h == nil {
		r.mu.Lock()
		fb := r.families[name].bounds
		r.mu.Unlock()
		s.h = NewHistogram(fb)
	}
	return s.h
}

// GaugeFunc registers a collect-at-scrape gauge family: fn runs during
// every exposition and emits zero or more labeled samples. It is the
// bridge for values that live elsewhere (accountant budgets, queue
// depths) — the emitter caps the sample count at
// the family cardinality bound and counts overflow as dropped series.
func (r *Registry) GaugeFunc(name, help string, fn func(emit func(v float64, labels ...Label))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensureFamily(name, help, KindGauge, nil)
	f.collect = fn
}
