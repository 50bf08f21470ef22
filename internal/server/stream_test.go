package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/workload"
)

// streamRecord is the union of the three NDJSON record shapes.
type streamRecord struct {
	Stream    string    `json:"stream"`
	Strategy  string    `json:"strategy"`
	Rows      int       `json:"rows"`
	ChunkSize int       `json:"chunkSize"`
	Ledger    *Budget   `json:"ledger"`
	Offset    *int      `json:"offset"`
	Answers   []float64 `json:"answers"`
	Done      bool      `json:"done"`
	Count     int       `json:"count"`
	Checksum  string    `json:"checksum"`
}

// verifyNDJSONStream is the client-side contract check: parse the NDJSON
// records, require contiguous chunk offsets and a trailing done record
// whose count and FNV-64a checksum match the received answers. It
// returns the reassembled answers; any truncation or corruption is an
// error.
func verifyNDJSONStream(body []byte) ([]float64, *streamRecord, error) {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("stream has %d records, want metadata + trailer at least", len(lines))
	}
	var meta streamRecord
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		return nil, nil, fmt.Errorf("metadata record: %w", err)
	}
	if meta.Stream != "answers" {
		return nil, nil, fmt.Errorf("metadata stream %q, want answers", meta.Stream)
	}
	var answers []float64
	sum := fnv64Offset
	var done *streamRecord
	for _, line := range lines[1:] {
		var rec streamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, nil, fmt.Errorf("record after %d answers: %w (truncated mid-record?)", len(answers), err)
		}
		if rec.Done {
			done = &rec
			break
		}
		if rec.Offset == nil {
			return nil, nil, fmt.Errorf("record after %d answers has neither offset nor done", len(answers))
		}
		if *rec.Offset != len(answers) {
			return nil, nil, fmt.Errorf("chunk offset %d, want %d", *rec.Offset, len(answers))
		}
		answers = append(answers, rec.Answers...)
		sum = fnvFloats(sum, rec.Answers)
	}
	if done == nil {
		return nil, nil, fmt.Errorf("stream ended after %d answers without a done record (truncated)", len(answers))
	}
	if done.Count != len(answers) {
		return nil, nil, fmt.Errorf("done record counts %d answers, received %d", done.Count, len(answers))
	}
	if got := string(appendHex16(nil, sum)); got != done.Checksum {
		return nil, nil, fmt.Errorf("checksum %s, stream carried %s (corrupted)", got, done.Checksum)
	}
	if meta.Rows != len(answers) {
		return nil, nil, fmt.Errorf("metadata promised %d rows, received %d", meta.Rows, len(answers))
	}
	return answers, &meta, nil
}

// TestStreamedReleaseMatchesBufferedHTTP pins the full HTTP contract:
// a streamed release under a pinned seed reproduces the buffered
// /answer payload bit for bit (the float emitter round-trips exactly),
// arrives as NDJSON over chunked transfer encoding, and carries a
// verifiable trailer.
func TestStreamedReleaseMatchesBufferedHTTP(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:16"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 16)
	for i := range hist {
		hist[i] = float64((i * 5) % 9)
	}

	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var buffered answerResponse
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 3, 4096} {
		resp, body = post(t, ts, "/release", map[string]any{
			"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
			"epsilon": 0.5, "delta": 1e-4, "seed": 7,
			"stream": true, "chunkSize": chunk,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
		}
		if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
			t.Fatalf("TransferEncoding %v, want chunked", resp.TransferEncoding)
		}
		answers, meta, err := verifyNDJSONStream(body)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(answers) != len(buffered.Answers) {
			t.Fatalf("chunk %d: %d answers, buffered %d", chunk, len(answers), len(buffered.Answers))
		}
		for i := range answers {
			if math.Float64bits(answers[i]) != math.Float64bits(buffered.Answers[i]) {
				t.Fatalf("chunk %d: answer[%d] = %v, buffered %v (bit mismatch)", chunk, i, answers[i], buffered.Answers[i])
			}
		}
		if meta.Ledger == nil || meta.Ledger.Epsilon <= 0 {
			t.Fatalf("chunk %d: metadata ledger %+v", chunk, meta.Ledger)
		}
	}
}

// TestStreamTruncationDetected pins the trailer's purpose: every way a
// stream can arrive incomplete — cut mid-record, cut at a record
// boundary before the trailer, or with a corrupted answer — fails
// client-side verification.
func TestStreamTruncationDetected(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:16"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 16)
	resp, body = post(t, ts, "/release", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 1, "stream": true, "chunkSize": 16,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if _, _, err := verifyNDJSONStream(body); err != nil {
		t.Fatalf("intact stream must verify: %v", err)
	}

	lines := strings.SplitAfter(string(body), "\n")
	dropTrailer := strings.Join(lines[:len(lines)-2], "")
	if _, _, err := verifyNDJSONStream([]byte(dropTrailer)); err == nil {
		t.Fatal("stream without its trailer must fail verification")
	}
	cutMidRecord := string(body)[:len(body)/2]
	if _, _, err := verifyNDJSONStream([]byte(cutMidRecord)); err == nil {
		t.Fatal("stream cut mid-record must fail verification")
	}
	corrupted := strings.Replace(string(body), `"answers":[`, `"answers":[1e9,`, 1)
	if _, _, err := verifyNDJSONStream([]byte(corrupted)); err == nil {
		t.Fatal("corrupted answers must fail checksum verification")
	}
}

// TestStreamRequestValidation covers the refusal paths specific to
// streaming: wrong endpoint, wrong mode, batch/stream conflicts, Accept
// mismatch, unknown strategy.
func TestStreamRequestValidation(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 8)
	base := map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "stream": true,
	}

	resp, _ = post(t, ts, "/answer", base)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/answer with stream: status %d, want 400", resp.StatusCode)
	}

	withMode := map[string]any{}
	for k, v := range base {
		withMode[k] = v
	}
	withMode["mode"] = "estimate"
	resp, _ = post(t, ts, "/release", withMode)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("streamed estimate: status %d, want 400", resp.StatusCode)
	}

	withBatch := map[string]any{}
	for k, v := range base {
		withBatch[k] = v
	}
	withBatch["releases"] = []map[string]any{{"strategy": d.Strategy}}
	resp, _ = post(t, ts, "/release", withBatch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream+batch: status %d, want 400", resp.StatusCode)
	}

	unknown := map[string]any{}
	for k, v := range base {
		unknown[k] = v
	}
	unknown["strategy"] = "nope"
	resp, _ = post(t, ts, "/release", unknown)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown strategy: status %d, want 404", resp.StatusCode)
	}

	// An Accept header that cannot take NDJSON is refused up front.
	buf, _ := json.Marshal(base)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/release", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("Accept: application/json: status %d, want 406", r2.StatusCode)
	}
}

// TestStreamConcurrencyLimit pins the semaphore: past the configured
// concurrent-stream limit the server refuses with 503 + Retry-After
// rather than queueing, and recovers once a slot frees.
func TestStreamConcurrencyLimit(t *testing.T) {
	s := NewWithOptions(Options{MaxConcurrentStreams: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": make([]float64, 8),
		"epsilon": 0.1, "delta": 1e-5, "stream": true,
	}

	s.streamSem <- struct{}{} // occupy the only slot
	resp, _ = post(t, ts, "/release", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	<-s.streamSem
	resp, body = post(t, ts, "/release", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if _, _, err := verifyNDJSONStream(body); err != nil {
		t.Fatal(err)
	}
}

// bigTreeEntry builds a served strategy over an AllRange(n) workload
// (n(n+1)/2 queries) with a hierarchical tree strategy and exact tree
// inference — the shape whose buffered release the payload cap refuses.
// Constructing the entry directly (the release path reads only the
// plan's Workload and Mechanism) keeps the test independent of design
// cost at this scale.
func bigTreeEntry(t testing.TB, n int) *entry {
	t.Helper()
	b := linalg.NewSparseBuilder(n)
	for span := n; span >= 1; span /= 2 {
		for lo := 0; lo < n; lo += span {
			b.AppendRangeRow(lo, lo+span-1, 1)
		}
	}
	mech, err := mm.NewMechanism(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mech.Solver().(*linalg.TreeSolver); !ok {
		t.Fatalf("tree strategy solver = %T, want *linalg.TreeSolver", mech.Solver())
	}
	w := workload.FromOperator("allrange", domain.MustShape(n), linalg.NewIntervalsOp(n))
	return &entry{plan: &planner.Plan{Workload: w, Mechanism: mech}}
}

// countingDiscardWriter discards the response stream while counting it,
// so the heap measurement sees only the server's own buffers.
type countingDiscardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *countingDiscardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *countingDiscardWriter) WriteHeader(code int) { w.status = code }
func (w *countingDiscardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestStreamReleaseHeapBound is the bounded-memory acceptance pin: a
// streamed release of AllRange(2048) — ~2.1M answers, over twice the
// buffered payload cap — must complete with heap growth during the
// stream bounded by a small multiple of the chunk size, not O(rows).
// GC is disabled during the measured pass, so the delta is cumulative
// allocation, a ceiling on the true peak.
func TestStreamReleaseHeapBound(t *testing.T) {
	const n = 2048
	s := New()
	ent := bigTreeEntry(t, n)
	s.mu.Lock()
	s.strategies["big"] = ent
	s.mu.Unlock()
	rows := ent.plan.Workload.NumQueries()
	if rows <= maxAnswerRows {
		t.Fatalf("workload has %d rows, want past the %d buffered cap", rows, maxAnswerRows)
	}
	h := s.Handler()

	body, err := json.Marshal(map[string]any{
		"strategy": "big", "dataset": "db1", "histogram": make([]float64, n),
		"epsilon": 0.5, "delta": 1e-4, "seed": 3, "stream": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *countingDiscardWriter {
		w := &countingDiscardWriter{}
		req := httptest.NewRequest(http.MethodPost, "/release", strings.NewReader(string(body)))
		h.ServeHTTP(w, req)
		return w
	}

	// Warm-up: grows the mechanism scratch, the pooled record buffer and
	// the stream chunk to their steady-state sizes.
	if w := run(); w.status != http.StatusOK {
		t.Fatalf("warm-up status %d", w.status)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := run()
	runtime.ReadMemStats(&after)
	if w.status != http.StatusOK {
		t.Fatalf("stream status %d", w.status)
	}
	// ~25 bytes per serialized answer is a floor; far under it means the
	// stream was cut short.
	if w.n < int64(rows)*10 {
		t.Fatalf("stream wrote %d bytes for %d answers — truncated?", w.n, rows)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(32 * mm.DefaultStreamChunk * 8) // 32 chunk-buffers of float64s
	if growth > limit {
		t.Fatalf("heap grew %d bytes during a %d-answer stream, want ≤ %d (bounded by chunk size, not rows)",
			growth, rows, limit)
	}
	t.Logf("streamed %d answers (%d bytes) with %d bytes heap growth", rows, w.n, growth)
}

// TestStreamedBufferedEquivalenceSharded covers the sharded inference
// path end to end over HTTP: a designed sharded plan streams
// bit-identically to its buffered release.
func TestStreamedBufferedEquivalenceSharded(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	// Marginal sets split into independent per-attribute blocks, the
	// planner's sharded form.
	resp, body := post(t, ts, "/design", map[string]any{"workload": "marginals:1:8x8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 64)
	for i := range hist {
		hist[i] = float64(i % 5)
	}
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var buffered answerResponse
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts, "/release", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 11, "stream": true, "chunkSize": 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	answers, _, err := verifyNDJSONStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(buffered.Answers) {
		t.Fatalf("%d answers, buffered %d", len(answers), len(buffered.Answers))
	}
	for i := range answers {
		if math.Float64bits(answers[i]) != math.Float64bits(buffered.Answers[i]) {
			t.Fatalf("answer[%d] = %v, buffered %v (bit mismatch)", i, answers[i], buffered.Answers[i])
		}
	}
}
