// Server observability: the flight recorder wired through every layer.
//
// One obs.Registry per server holds every metric family — HTTP traffic
// by route and status class, release latency and its per-stage
// breakdown (threaded into the mechanism via mm.StageTimers), planner
// design activity and cache behavior, accountant budgets and plan-store
// persistence health — and renders them at GET /metrics in the
// Prometheus text exposition.
//
// Recording is atomic-only: the instrumentation rides inside the
// pinned zero-allocation release path (see alloc_test.go), so nothing
// on a request's success path may allocate. Per-release traces are the
// exception and are opt-in per request ("trace": true, or an
// X-AM-Trace header naming a client-supplied parent): a trace allocates freely, lands in a
// bounded lock-free ring, and is served at GET /debug/traces.
//
// Operational log messages all flow through infof/warnf with a
// component tag; warnings are counted per component in
// am_log_warnings_total so "is it logging errors" is a scrape, not a
// grep.

package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"adaptivemm/internal/mm"
	"adaptivemm/internal/obs"
)

// traceRingSize bounds the /debug/traces flight recorder.
const traceRingSize = 256

// defaultTraceN is how many traces GET /debug/traces returns when the
// request does not choose (?n=).
const defaultTraceN = 50

// Route indices for the HTTP middleware's pre-registered series. Every
// request maps onto exactly one of these, so the route label set is
// closed at compile time.
const (
	routeDesign = iota
	routeDatasets
	routeAnswer
	routeRelease
	routeLedger
	routePlans
	routeMetrics
	routeTraces
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{
	"design", "datasets", "answer", "release", "ledger",
	"plans", "metrics", "traces", "other",
}

// routeIndex classifies a request path onto a route index without
// allocating.
func routeIndex(path string) int {
	switch path {
	case "/design":
		return routeDesign
	case "/datasets":
		return routeDatasets
	case "/answer":
		return routeAnswer
	case "/release":
		return routeRelease
	case "/ledger":
		return routeLedger
	case "/metrics":
		return routeMetrics
	case "/debug/traces":
		return routeTraces
	}
	switch {
	case len(path) >= len("/plans") && path[:len("/plans")] == "/plans":
		return routePlans
	}
	return routeOther
}

// Log components. The set is closed so am_log_warnings_total has a
// fixed label set; messages from an unlisted component count under
// "other".
const (
	compHTTP    = "http"
	compPlan    = "plan"
	compPersist = "persist"
	compStore   = "store"
	compOther   = "other"
)

var logComponents = [...]string{compHTTP, compPlan, compPersist, compStore, compOther}

// serverMetrics is every pre-registered series the server records on.
// It is built once in Open, before any request can arrive; all fields
// are read-only afterwards, so recording needs no lock.
type serverMetrics struct {
	reg  *obs.Registry
	ring *obs.TraceRing

	// HTTP middleware series, indexed by route; status classes are
	// 1xx..5xx at indices 0..4.
	httpReq  [numRoutes][5]*obs.Counter
	httpSec  [numRoutes]*obs.Histogram
	inFlight [numRoutes]*obs.Gauge

	// Release path.
	releases      *obs.Counter
	releaseSec    *obs.Histogram
	serializeSec  *obs.Histogram
	stage         *mm.StageTimers
	refusals      *obs.Counter
	streamRejects *obs.Counter

	// Planner + plan store.
	designSec    *obs.Histogram
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	designs      map[string]*obs.Counter
	persistDrops *obs.Counter
	evictions    *obs.Counter

	// Per-component warning counters for warnf.
	warns map[string]*obs.Counter
}

// newServerMetrics registers the server-wide families on a fresh
// registry.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{
		reg:  obs.NewRegistry(),
		ring: obs.NewTraceRing(traceRingSize),
	}
	classes := [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}
	for rt := 0; rt < numRoutes; rt++ {
		for c, class := range classes {
			//lint:allow obscard: route and status-class label values index compile-time-constant tables (routeNames, classes)
			m.httpReq[rt][c] = m.reg.Counter("am_http_requests_total", "HTTP requests by route and status class", obs.L("route", routeNames[rt]), obs.L("code", class))
		}
		//lint:allow obscard: route label values index the compile-time-constant routeNames table
		m.httpSec[rt] = m.reg.Histogram("am_http_request_seconds", "HTTP request latency by route", obs.DefTimeBuckets, obs.L("route", routeNames[rt]))
		//lint:allow obscard: route label values index the compile-time-constant routeNames table
		m.inFlight[rt] = m.reg.Gauge("am_http_in_flight", "in-flight HTTP requests by route", obs.L("route", routeNames[rt]))
	}

	m.releases = m.reg.Counter("am_releases_total", "successful private releases (buffered, batch entries, and streamed)")
	m.releaseSec = m.reg.Histogram("am_release_seconds", "end-to-end release latency (validate, reserve, noise, inference)", obs.DefTimeBuckets)
	m.serializeSec = m.reg.Histogram("am_release_stage_seconds", "release pipeline stage latency", obs.DefTimeBuckets, obs.L("stage", "serialize"))
	m.stage = &mm.StageTimers{
		Answer: m.reg.Histogram("am_release_stage_seconds", "release pipeline stage latency", obs.DefTimeBuckets, obs.L("stage", "answer")),
		Noise:  m.reg.Histogram("am_release_stage_seconds", "release pipeline stage latency", obs.DefTimeBuckets, obs.L("stage", "noise")),
		Infer:  m.reg.Histogram("am_release_stage_seconds", "release pipeline stage latency", obs.DefTimeBuckets, obs.L("stage", "infer")),
	}
	m.refusals = m.reg.Counter("am_acct_refusals_total", "releases refused by the budget accountant (HTTP 429)")
	m.streamRejects = m.reg.Counter("am_stream_rejects_total", "streamed releases refused at the concurrency limit (HTTP 503)")

	m.designSec = m.reg.Histogram("am_plan_design_seconds", "strategy design latency (planner runs, cache misses only)", obs.DefTimeBuckets)
	m.cacheHits = m.reg.Counter("am_plan_cache_hits_total", "designs served from the strategy cache")
	m.cacheMisses = m.reg.Counter("am_plan_cache_misses_total", "designs that ran the planner")
	m.designs = make(map[string]*obs.Counter)
	for _, g := range s.pl.Generators() {
		//lint:allow obscard: generator label values come from the planner's compile-time generator registry, a bounded set fixed at startup
		m.designs[g] = m.reg.Counter("am_plan_designs_total", "won designs by planner generator", obs.L("generator", g))
	}
	m.persistDrops = m.reg.Counter("am_store_persist_drops_total", "plan persistence writes dropped at the full write-behind queue")
	m.evictions = m.reg.Counter("am_store_evictions_total", "plan-store entries evicted by the byte quota")

	m.warns = make(map[string]*obs.Counter, len(logComponents))
	for _, c := range logComponents {
		//lint:allow obscard: component label values come from the compile-time logComponents table
		m.warns[c] = m.reg.Counter("am_log_warnings_total", "operational warnings logged, by component", obs.L("component", c))
	}

	// Collect-at-scrape gauges for state that lives elsewhere. The
	// closures read the server's own structures under their own locks;
	// nil channels (persistence off) read as depth 0.
	m.reg.GaugeFunc("am_acct_epsilon_spent", "committed epsilon spend by dataset", func(emit func(v float64, labels ...obs.Label)) {
		for _, name := range s.acct.Datasets() {
			emit(s.acct.Spent(name).Epsilon, obs.L("dataset", name))
		}
	})
	m.reg.GaugeFunc("am_acct_delta_spent", "committed delta spend by dataset", func(emit func(v float64, labels ...obs.Label)) {
		for _, name := range s.acct.Datasets() {
			emit(s.acct.Spent(name).Delta, obs.L("dataset", name))
		}
	})
	m.reg.GaugeFunc("am_acct_epsilon_remaining", "remaining epsilon under the cap, capped datasets only", func(emit func(v float64, labels ...obs.Label)) {
		for _, name := range s.acct.Datasets() {
			if rem, ok := s.acct.Remaining(name); ok {
				emit(rem.Epsilon, obs.L("dataset", name))
			}
		}
	})
	m.reg.GaugeFunc("am_acct_delta_remaining", "remaining delta under the cap, capped datasets only", func(emit func(v float64, labels ...obs.Label)) {
		for _, name := range s.acct.Datasets() {
			if rem, ok := s.acct.Remaining(name); ok {
				emit(rem.Delta, obs.L("dataset", name))
			}
		}
	})
	m.reg.GaugeFunc("am_store_persist_queue_depth", "pending plan writes in the write-behind queue", func(emit func(v float64, labels ...obs.Label)) {
		emit(float64(len(s.persistCh)))
	})
	m.reg.GaugeFunc("am_stream_in_flight", "streamed releases currently running", func(emit func(v float64, labels ...obs.Label)) {
		emit(float64(len(s.streamSem)))
	})
	m.reg.GaugeFunc("am_server_strategies", "strategies resident in the table", func(emit func(v float64, labels ...obs.Label)) {
		s.mu.RLock()
		n := len(s.strategies)
		s.mu.RUnlock()
		emit(float64(n))
	})
	return m
}

// instrumentPlan attaches the shared stage-timer histograms to a plan's
// mechanism so every release through it feeds am_release_stage_seconds.
func (s *Server) instrumentPlan(mech *mm.Mechanism) {
	mech.SetStageTimers(s.metrics.stage)
}

// --- leveled component logging ---

// infof logs an informational message under a component tag.
func (s *Server) infof(component, format string, args ...any) {
	s.logf("server/"+component+": "+format, args...)
}

// warnf logs a warning under a component tag and counts it in
// am_log_warnings_total{component}.
func (s *Server) warnf(component, format string, args ...any) {
	c, ok := s.metrics.warns[component]
	if !ok {
		c = s.metrics.warns[compOther]
	}
	c.Inc()
	s.logf("server/"+component+": warning: "+format, args...)
}

// --- HTTP middleware ---

// statusWriter captures the response status for the middleware. Pooled:
// the wrapper must not charge the zero-alloc release path a per-request
// allocation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streamed releases keep
// their chunk-by-chunk delivery through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap is the instrumentation middleware: per-route request counters by
// status class, latency histograms, and in-flight gauges — atomic
// recording only, no per-request allocation in steady state.
func (m *serverMetrics) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := routeIndex(r.URL.Path)
		m.inFlight[rt].Add(1)
		t0 := time.Now()
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, 0
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
		m.httpSec[rt].ObserveSince(t0)
		m.inFlight[rt].Add(-1)
		class := code/100 - 1
		if class < 0 || class > 4 {
			class = 4
		}
		m.httpReq[rt][class].Inc()
	})
}

// --- /metrics and /debug/traces ---

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WriteText(w)
}

// spanJSON is one stage of a trace in the /debug/traces response, as
// microsecond offsets from the trace start.
type spanJSON struct {
	Name        string `json:"name"`
	StartMicros int64  `json:"startMicros"`
	EndMicros   int64  `json:"endMicros"`
}

type traceJSON struct {
	ID             string     `json:"id"`
	Parent         string     `json:"parent,omitempty"`
	Route          string     `json:"route"`
	Status         int        `json:"status"`
	DurationMillis float64    `json:"durationMillis"`
	Spans          []spanJSON `json:"spans"`
}

type tracesResponse struct {
	// Total is how many traces have ever been recorded (the ring keeps
	// the most recent traceRingSize of them).
	Total  uint64      `json:"total"`
	Traces []traceJSON `json:"traces"`
}

// handleTraces serves GET /debug/traces: the most recent traces, newest
// first, filterable by ?route=, ?status=, ?min_ms= and capped at ?n=.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	route := q.Get("route")
	status := 0
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "status filter %q is not an integer", v)
			return
		}
		status = n
	}
	minMS := 0.0
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "min_ms filter %q is not a number", v)
			return
		}
		minMS = f
	}
	n := defaultTraceN
	if v := q.Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i <= 0 {
			httpError(w, http.StatusBadRequest, "n filter %q is not a positive integer", v)
			return
		}
		n = i
	}
	resp := tracesResponse{Total: s.metrics.ring.Len(), Traces: []traceJSON{}}
	for _, tr := range s.metrics.ring.Snapshot() {
		if route != "" && tr.Route != route {
			continue
		}
		if status != 0 && tr.Status != status {
			continue
		}
		if minMS > 0 && tr.Duration < time.Duration(minMS*float64(time.Millisecond)) {
			continue
		}
		spans := tr.Spans()
		js := traceJSON{
			ID:             tr.ID,
			Parent:         tr.Parent,
			Route:          tr.Route,
			Status:         tr.Status,
			DurationMillis: float64(tr.Duration) / float64(time.Millisecond),
			Spans:          make([]spanJSON, len(spans)),
		}
		for i, sp := range spans {
			js.Spans[i] = spanJSON{Name: sp.Name, StartMicros: sp.Start.Microseconds(), EndMicros: sp.End.Microseconds()}
		}
		resp.Traces = append(resp.Traces, js)
		if len(resp.Traces) >= n {
			break
		}
	}
	writeJSON(w, resp)
}

// MetricsHandler returns a handler serving only the observability
// surface (/metrics and /debug/traces) — the amserve -metrics-addr side
// listener, so operators can scrape a server whose main port sits
// behind stricter network policy.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	return mux
}

// appendBudgetTrace appends the ledger block, with the release's trace
// echoed inside it when the request opted in ("trace": true). Status
// and total duration are not final at encode time; the full record is
// at GET /debug/traces under the echoed id.
func appendBudgetTrace(b []byte, v Budget, tr *obs.Trace) []byte {
	if tr == nil {
		return appendBudget(b, v)
	}
	b = append(b, `{"epsilon":`...)
	b = appendFloat(b, v.Epsilon)
	b = append(b, `,"delta":`...)
	b = appendFloat(b, v.Delta)
	b = append(b, `,"trace":{"id":"`...)
	b = append(b, tr.ID...)
	b = append(b, '"')
	if tr.Parent != "" {
		b = append(b, `,"parent":"`...)
		b = append(b, tr.Parent...)
		b = append(b, '"')
	}
	b = append(b, `,"spans":[`...)
	for i, sp := range tr.Spans() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, sp.Name)
		b = append(b, `,"startMicros":`...)
		b = strconv.AppendInt(b, sp.Start.Microseconds(), 10)
		b = append(b, `,"endMicros":`...)
		b = strconv.AppendInt(b, sp.End.Microseconds(), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}', '}')
}
