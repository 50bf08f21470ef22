package server

// Flight-recorder integration tests: the /metrics exposition is driven
// by real HTTP traffic and re-parsed with obs.ParseText (the same
// pipeline an external scraper runs), per-release traces round-trip
// through the /answer ledger and GET /debug/traces, an X-AM-Trace
// header becomes the trace's parent, and the instrumentation's allocation cost on the pinned release path
// stays at zero.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adaptivemm/internal/fleet"
	"adaptivemm/internal/obs"
)

// scrapeMetrics GETs /metrics and re-parses the exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	exp, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics exposition does not parse: %v", err)
	}
	return exp
}

// mustValue asserts a sample exists and returns it. pairs are
// label-name/label-value alternations, as Exposition.Value takes them.
func mustValue(t *testing.T, exp *obs.Exposition, name string, pairs ...string) float64 {
	t.Helper()
	v, ok := exp.Value(name, pairs...)
	if !ok {
		t.Fatalf("metric %s%v missing from /metrics", name, pairs)
	}
	return v
}

// TestMetricsEndpointFamilies drives one of everything — a design (cache
// miss), a repeat design (hit), a dataset registration, successful and
// budget-refused releases, a streamed release — then asserts the scrape
// reflects all of it across the server, planner, accountant, and store
// families.
func TestMetricsEndpointFamilies(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	d := designOn(t, ts, map[string]any{"workload": "identity:8"})
	designOn(t, ts, map[string]any{"workload": "identity:8"}) // cache hit
	registerDataset(t, ts, "obs", []float64{1, 2, 3, 4, 5, 6, 7, 8}, &Budget{Epsilon: 1, Delta: 1e-2})

	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "obs", "epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	// Refused: this would blow the epsilon cap.
	resp, _ = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "obs", "epsilon": 5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget answer status %d", resp.StatusCode)
	}
	// Streamed release.
	resp, body = post(t, ts, "/release", map[string]any{
		"strategy": d.Strategy, "dataset": "obs", "epsilon": 0.25, "delta": 1e-4,
		"stream": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}

	exp := scrapeMetrics(t, ts)

	// Server: HTTP traffic by route and status class, release totals.
	if v := mustValue(t, exp, "am_http_requests_total", "route", "answer", "code", "2xx"); v < 1 {
		t.Fatalf("answer 2xx count %g", v)
	}
	if v := mustValue(t, exp, "am_http_requests_total", "route", "answer", "code", "4xx"); v < 1 {
		t.Fatalf("answer 4xx count %g", v)
	}
	if v := mustValue(t, exp, "am_releases_total"); v != 2 { // buffered + streamed
		t.Fatalf("am_releases_total = %g, want 2", v)
	}
	if v := mustValue(t, exp, "am_release_seconds_count"); v != 2 {
		t.Fatalf("am_release_seconds_count = %g, want 2", v)
	}
	if v := mustValue(t, exp, "am_http_request_seconds_count", "route", "design"); v != 2 {
		t.Fatalf("design latency count %g, want 2", v)
	}
	// Stage timers fire for buffered and streamed releases alike.
	for _, stage := range []string{"answer", "noise", "infer", "serialize"} {
		if v := mustValue(t, exp, "am_release_stage_seconds_count", "stage", stage); v < 1 {
			t.Fatalf("stage %q count %g, want ≥ 1", stage, v)
		}
	}

	// Planner: one miss, one hit, the win credited to a generator.
	if v := mustValue(t, exp, "am_plan_cache_hits_total"); v != 1 {
		t.Fatalf("cache hits %g, want 1", v)
	}
	if v := mustValue(t, exp, "am_plan_cache_misses_total"); v != 1 {
		t.Fatalf("cache misses %g, want 1", v)
	}
	if v := mustValue(t, exp, "am_plan_design_seconds_count"); v != 1 {
		t.Fatalf("design seconds count %g, want 1", v)
	}
	if v := mustValue(t, exp, "am_plan_designs_total", "generator", d.Planner.Generator); v != 1 {
		t.Fatalf("designs won by %q = %g, want 1", d.Planner.Generator, v)
	}

	// Accountant: spend and remaining per dataset, refusal count.
	if v := mustValue(t, exp, "am_acct_refusals_total"); v != 1 {
		t.Fatalf("refusals %g, want 1", v)
	}
	if v := mustValue(t, exp, "am_acct_epsilon_spent", "dataset", "obs"); v != 0.75 {
		t.Fatalf("epsilon spent %g, want 0.75", v)
	}
	if v := mustValue(t, exp, "am_acct_epsilon_remaining", "dataset", "obs"); v != 0.25 {
		t.Fatalf("epsilon remaining %g, want 0.25", v)
	}

	// Store and server gauges.
	if v := mustValue(t, exp, "am_server_strategies"); v != 1 {
		t.Fatalf("strategies gauge %g, want 1", v)
	}
	mustValue(t, exp, "am_store_persist_queue_depth")
	mustValue(t, exp, "am_stream_in_flight")
	mustValue(t, exp, "am_store_persist_drops_total")
	mustValue(t, exp, "am_store_evictions_total")
}

// ledgerTrace is the trace block echoed inside a release ledger when
// the request set "trace": true.
type ledgerTrace struct {
	ID     string     `json:"id"`
	Parent string     `json:"parent"`
	Spans  []spanJSON `json:"spans"`
}

// tracedAnswer posts /answer with "trace": true and returns the echoed
// trace block.
func tracedAnswer(t *testing.T, ts *httptest.Server, strategy string, extra map[string]any) ledgerTrace {
	t.Helper()
	req := map[string]any{
		"strategy": strategy, "dataset": "traced",
		"histogram": []float64{1, 2, 3, 4, 5, 6, 7, 8},
		"epsilon":   0.1, "delta": 1e-5, "trace": true,
	}
	for k, v := range extra {
		req[k] = v
	}
	resp, body := post(t, ts, "/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced answer status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Ledger struct {
			Epsilon float64      `json:"epsilon"`
			Trace   *ledgerTrace `json:"trace"`
		} `json:"ledger"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("traced answer body does not parse: %v: %s", err, body)
	}
	if out.Ledger.Trace == nil {
		t.Fatalf("ledger has no trace block: %s", body)
	}
	return *out.Ledger.Trace
}

// spanNames flattens a span list for set membership checks.
func spanNames(spans []spanJSON) map[string]bool {
	set := make(map[string]bool, len(spans))
	for _, sp := range spans {
		set[sp.Name] = true
	}
	return set
}

// getTraces fetches GET /debug/traces with a raw query string.
func getTraces(t *testing.T, ts *httptest.Server, query string) tracesResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces%s: status %d", query, resp.StatusCode)
	}
	var tr tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAnswerTraceEchoAndRing pins the opt-in trace contract: the ledger
// echoes the trace with the pipeline stages, the full record (with
// status and duration) is at /debug/traces, and untraced requests leave
// nothing behind.
func TestAnswerTraceEchoAndRing(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:8"})

	// Untraced request first: no ledger trace, nothing in the ring.
	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "plain",
		"histogram": []float64{1, 2, 3, 4, 5, 6, 7, 8},
		"epsilon":   0.1, "delta": 1e-5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced answer status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("untraced answer leaked a trace block: %s", body)
	}
	if tr := getTraces(t, ts, ""); tr.Total != 0 {
		t.Fatalf("ring has %d traces before any traced request", tr.Total)
	}

	echo := tracedAnswer(t, ts, d.Strategy, nil)
	if len(echo.ID) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", echo.ID)
	}
	names := spanNames(echo.Spans)
	for _, want := range []string{"answer", "noise", "infer", "serialize"} {
		if !names[want] {
			t.Fatalf("echoed trace missing span %q: %+v", want, echo.Spans)
		}
	}

	ring := getTraces(t, ts, "")
	if ring.Total != 1 || len(ring.Traces) != 1 {
		t.Fatalf("ring: total %d, %d traces, want 1/1", ring.Total, len(ring.Traces))
	}
	rec := ring.Traces[0]
	if rec.ID != echo.ID || rec.Route != "answer" || rec.Status != http.StatusOK {
		t.Fatalf("recorded trace %+v does not match echo id %q", rec, echo.ID)
	}
	if rec.DurationMillis <= 0 {
		t.Fatalf("recorded trace has no duration: %+v", rec)
	}

	// Filters: route match, route miss, status miss, an unreachable
	// min_ms threshold, and n capping.
	if tr := getTraces(t, ts, "?route=answer"); len(tr.Traces) != 1 {
		t.Fatalf("route=answer matched %d traces", len(tr.Traces))
	}
	if tr := getTraces(t, ts, "?route=stream"); len(tr.Traces) != 0 {
		t.Fatalf("route=stream matched %d traces", len(tr.Traces))
	}
	if tr := getTraces(t, ts, "?status=500"); len(tr.Traces) != 0 {
		t.Fatalf("status=500 matched %d traces", len(tr.Traces))
	}
	if tr := getTraces(t, ts, "?min_ms=600000"); len(tr.Traces) != 0 {
		t.Fatalf("min_ms=600000 matched %d traces", len(tr.Traces))
	}
	tracedAnswer(t, ts, d.Strategy, nil)
	if tr := getTraces(t, ts, "?n=1"); tr.Total != 2 || len(tr.Traces) != 1 {
		t.Fatalf("n=1: total %d, %d traces, want total 2 with 1 returned", tr.Total, len(tr.Traces))
	}

	// Malformed filters are 400, not 500.
	resp2, err := http.Get(ts.URL + "/debug/traces?min_ms=soon")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("min_ms=soon status %d", resp2.StatusCode)
	}
}

// TestStreamTraceRecorded pins the streamed-release trace shape: the
// metadata record's ledger echoes the trace, and the ring record carries
// the release and stream spans.
func TestStreamTraceRecorded(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:8"})

	resp, body := post(t, ts, "/release", map[string]any{
		"strategy": d.Strategy, "dataset": "streamtrace",
		"histogram": []float64{1, 2, 3, 4, 5, 6, 7, 8},
		"epsilon":   0.1, "delta": 1e-5, "stream": true, "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	meta := bytes.SplitN(body, []byte("\n"), 2)[0]
	if !bytes.Contains(meta, []byte(`"trace"`)) {
		t.Fatalf("stream metadata record has no trace: %s", meta)
	}

	ring := getTraces(t, ts, "?route=stream")
	if len(ring.Traces) != 1 {
		t.Fatalf("stream traces recorded: %d, want 1", len(ring.Traces))
	}
	names := spanNames(ring.Traces[0].Spans)
	for _, want := range []string{"release", "stream"} {
		if !names[want] {
			t.Fatalf("stream trace missing span %q: %+v", want, ring.Traces[0].Spans)
		}
	}
}

// postWithParent posts a JSON body, sending parent in the X-AM-Trace
// header unless it is empty.
func postWithParent(t *testing.T, ts *httptest.Server, path string, body any, parent string) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != "" {
		req.Header.Set(fleet.TraceHeader, parent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestTraceHeaderParent pins X-AM-Trace as a client-supplied trace
// parent: a traced /answer, batch /release and streamed release each
// record the header's value as "parent" at GET /debug/traces, and the
// same requests without the header record no parent.
func TestTraceHeaderParent(t *testing.T) {
	hist := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, parent := range []string{"client-trace-42", ""} {
		ts := httptest.NewServer(New().Handler())
		d := designOn(t, ts, map[string]any{"workload": "identity:8"})
		requests := []struct {
			route, path string
			body        map[string]any
		}{
			{"answer", "/answer", map[string]any{
				"strategy": d.Strategy, "dataset": "traced", "histogram": hist,
				"epsilon": 0.1, "delta": 1e-5, "trace": true,
			}},
			{"release", "/release", map[string]any{
				"histograms": map[string][]float64{"traced": hist},
				"releases": []map[string]any{{
					"strategy": d.Strategy, "dataset": "traced",
					"epsilon": 0.1, "delta": 1e-5, "trace": true,
				}},
			}},
			{"stream", "/release", map[string]any{
				"strategy": d.Strategy, "dataset": "traced", "histogram": hist,
				"epsilon": 0.1, "delta": 1e-5, "stream": true, "trace": true,
			}},
		}
		for _, rq := range requests {
			resp, body := postWithParent(t, ts, rq.path, rq.body, parent)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s (parent %q): status %d: %s", rq.route, parent, resp.StatusCode, body)
			}
			resp, err := http.Get(ts.URL + "/debug/traces?route=" + rq.route)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(raw, []byte(`"id":`)); n != 1 {
				t.Fatalf("%s (parent %q): %d traces recorded, want 1: %s", rq.route, parent, n, raw)
			}
			want := []byte(`"parent":"` + parent + `"`)
			if parent == "" {
				want = []byte(`"parent":`)
			}
			if bytes.Contains(raw, want) != (parent != "") {
				t.Fatalf("%s (parent %q): /debug/traces body %s", rq.route, parent, raw)
			}
		}
		ts.Close()
	}
}

// TestDeletedFleetRoutes pins that the removed coordinator/worker
// routes are gone: none of them answers 200, not even the raw bytes of
// a plan the store holds.
func TestDeletedFleetRoutes(t *testing.T) {
	s, err := Open(Options{StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	designOn(t, ts, map[string]any{"workload": "identity:8"})
	// Flush the write-behind queue so the entry is durably listed.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	metas, err := s.store.List()
	if err != nil || len(metas) != 1 {
		t.Fatalf("List = %d entries (%v), want 1", len(metas), err)
	}
	for _, rq := range []struct{ method, path string }{
		{http.MethodGet, "/fleet"},
		{http.MethodPost, "/shards/x/0"},
		{http.MethodGet, "/plans/" + metas[0].ID + "/raw"},
	} {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 404 or 405", rq.method, rq.path, resp.StatusCode)
		}
	}
}

// TestSingleAnswerAllocBound pins the instrumentation's cost on the
// single-release path: with metrics always on (counters, stage timers,
// middleware) but tracing off, a steady-state /answer stays within the
// same deliberate-bookkeeping budget it had before the flight recorder.
func TestSingleAnswerAllocBound(t *testing.T) {
	s := New()
	h := s.Handler()
	respBody := bytes.NewBuffer(make([]byte, 0, 1<<20))
	drive := func(path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		respBody.Reset()
		rec := &httptest.ResponseRecorder{Code: http.StatusOK, HeaderMap: http.Header{}, Body: respBody}
		h.ServeHTTP(rec, req)
		return rec
	}
	designBody, _ := json.Marshal(map[string]any{"workload": "allrange:64"})
	if rec := drive("/design", designBody); rec.Code != http.StatusOK {
		t.Fatalf("design: status %d: %s", rec.Code, respBody.String())
	}
	var design struct {
		Strategy string `json:"strategy"`
		Cells    int    `json:"cells"`
	}
	if err := json.Unmarshal(respBody.Bytes(), &design); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, design.Cells)
	for i := range hist {
		hist[i] = float64(i % 5)
	}
	dsBody, _ := json.Marshal(map[string]any{"name": "alloc1", "histogram": hist})
	if rec := drive("/datasets", dsBody); rec.Code != http.StatusOK {
		t.Fatalf("datasets: status %d: %s", rec.Code, respBody.String())
	}
	ansBody, _ := json.Marshal(map[string]any{
		"strategy": design.Strategy, "dataset": "alloc1",
		"epsilon": 1e-4, "delta": 1e-9, "mode": "estimate",
	})
	for i := 0; i < 3; i++ {
		if rec := drive("/answer", ansBody); rec.Code != http.StatusOK {
			t.Fatalf("warm-up answer: status %d: %s", rec.Code, respBody.String())
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if rec := drive("/answer", ansBody); rec.Code != http.StatusOK {
			t.Fatalf("answer: status %d", rec.Code)
		}
	})
	// Steady state measures ~20 allocations: request decode, budget
	// bookkeeping, header map — none from metric recording. A trace
	// (opt-in) would add more; this request doesn't opt in.
	if allocs > 40 {
		t.Fatalf("single /answer allocates %.0f, want ≤ 40", allocs)
	}
}

// TestMetricRecordingZeroAllocServer pins that the recording primitives
// the handlers call on every request are allocation-free, measured
// against the server's own live registry.
func TestMetricRecordingZeroAllocServer(t *testing.T) {
	s := New()
	m := s.metrics
	if allocs := testing.AllocsPerRun(100, func() {
		m.releases.Inc()
		m.httpReq[routeAnswer][1].Inc()
		m.inFlight[routeAnswer].Add(1)
		m.inFlight[routeAnswer].Add(-1)
		m.releaseSec.Observe(3e-4)
		m.stage.Infer.Observe(1e-4)
	}); allocs != 0 {
		t.Fatalf("metric recording allocates %.1f per op, want 0", allocs)
	}
}

// TestMetricsScrapeDuringTrafficRace hammers the registry and trace
// ring from concurrent traced releases, scrapes, and trace reads. Run
// with -race this is the data-race pin for the whole flight recorder.
func TestMetricsScrapeDuringTrafficRace(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:8"})

	const workers, iters = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body, _ := json.Marshal(map[string]any{
					"strategy": d.Strategy, "dataset": "race",
					"histogram": []float64{1, 2, 3, 4, 5, 6, 7, 8},
					"epsilon":   1e-4, "delta": 1e-9, "trace": i%2 == 0,
				})
				resp, err := http.Post(ts.URL+"/answer", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/debug/traces")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	exp := scrapeMetrics(t, ts)
	if v := mustValue(t, exp, "am_releases_total"); v != workers*iters {
		t.Fatalf("am_releases_total = %g, want %d", v, workers*iters)
	}
}
