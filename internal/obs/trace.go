package obs

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named stage of a trace, stored as monotonic offsets from
// the trace start so spans from concurrent goroutines order cleanly.
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// Trace is the flight record of one release: an ID, the parent ID a
// client supplied in the X-AM-Trace header (empty without one), and
// per-stage spans stamped against one monotonic start time. Traces are
// opt-in per request — the always-on instrumentation is metrics-only —
// so a trace may allocate freely without disturbing the zero-alloc
// release pins.
type Trace struct {
	ID       string
	Parent   string
	Route    string
	Status   int
	Duration time.Duration

	begin time.Time
	mu    sync.Mutex
	spans []Span
}

// traceIDState is a Weyl-sequence generator seeded once from the
// CSPRNG: IDs are unique per process and unpredictable across
// processes without taking a lock or an allocation beyond the ID
// string itself.
var traceIDState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		traceIDState.Store(binary.LittleEndian.Uint64(seed[:]))
	}
}

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() string {
	n := traceIDState.Add(0x9e3779b97f4a7c15)
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[n&0xf]
		n >>= 4
	}
	return string(buf[:])
}

// NewTrace starts a trace for the given route. parent is the upstream
// trace ID ("" at the request origin).
func NewTrace(route, parent string) *Trace {
	return &Trace{ID: NewTraceID(), Parent: parent, Route: route, begin: time.Now()}
}

// Begin returns the trace's monotonic start time; stage code captures
// time.Now() against it.
func (t *Trace) Begin() time.Time { return t.begin }

// AddSpan records a span from start until now. Safe for concurrent use
// (a batch entry's release and its serialization record spans from
// different goroutines). No-op on a nil
// trace so call sites can thread an optional trace without branching.
func (t *Trace) AddSpan(name string, start time.Time) {
	if t == nil {
		return
	}
	t.AddSpanRange(name, start, time.Now())
}

// AddSpanRange records a span with an explicit end time.
func (t *Trace) AddSpanRange(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.begin), End: end.Sub(t.begin)})
	t.mu.Unlock()
}

// Finish stamps the total duration and terminal status. It must be
// called before the trace is Put into a ring.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.Status = status
	t.Duration = time.Since(t.begin)
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

// TraceRing is a bounded lock-free ring of finished traces: writers
// claim a slot with one atomic add and store a pointer, readers
// snapshot without blocking writers. When the ring wraps, the oldest
// trace is overwritten — the ring is a flight recorder, not an
// archive.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewTraceRing builds a ring holding the most recent n traces.
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], n)}
}

// Put records a finished trace. No-op on a nil ring or nil trace.
func (r *TraceRing) Put(t *Trace) {
	if r == nil || t == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// Len reports how many traces have ever been put (not the current
// occupancy).
func (r *TraceRing) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the resident traces newest-first.
func (r *TraceRing) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	size := uint64(len(r.slots))
	out := make([]*Trace, 0, len(r.slots))
	for off := uint64(0); off < size && off < n; off++ {
		t := r.slots[(n-1-off)%size].Load()
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
