// Streamed releases over HTTP: POST /release with "stream": true.
//
// The buffered /answer path materializes every answer and the full JSON
// body before writing, so its payload cap (maxAnswerRows) is a hard
// ceiling — AllRange(2048)'s ~2.1M answers are designable but were never
// servable. The streamed path runs noise + inference once (O(cells), the
// privacy-relevant work is identical to the buffered path) and then
// writes the answers as NDJSON records of one chunk each under chunked
// transfer encoding:
//
//	{"stream":"answers","strategy":...,"rows":m,"chunkSize":c,"ledger":{...}}
//	{"offset":0,"answers":[...]}
//	{"offset":c,"answers":[...]}
//	...
//	{"done":true,"count":m,"checksum":"<16 hex>"}
//
// Per-stream memory is one chunk buffer plus the estimate, not O(rows);
// the payload cap does not apply. The trailing record carries the answer
// count and an FNV-64a checksum over the little-endian IEEE-754 bits of
// every answer in stream order, so a client can detect a truncated or
// corrupted stream (a dropped connection otherwise looks like a clean
// early EOF at a record boundary). Concurrency is bounded by a semaphore
// acquired non-blocking: past MaxConcurrentStreams, requests get 503 +
// Retry-After instead of queueing buffers.

package server

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	//lint:allow noiserand: client-pinned seeds for reproducible streamed releases against ad-hoc data, same policy as the buffered path (resolveAndReserve)
	"math/rand"

	"adaptivemm/internal/mm"
	"adaptivemm/internal/obs"
)

// defaultMaxStreams bounds concurrent streamed releases when Options
// does not choose: 32 streams × the default 8192-value chunk is ~2 MiB
// of chunk buffers at full load.
const defaultMaxStreams = 32

// maxStreamChunk caps the client-chosen chunk size; a huge chunk would
// reintroduce the O(rows) buffering that streaming exists to avoid.
const maxStreamChunk = 1 << 16

// fnv64Offset/fnv64Prime are the FNV-64a parameters; the checksum is
// computed inline (hash/fnv would allocate a byte slice per value).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// fnvFloats folds a chunk of answers into an FNV-64a state, hashing each
// float64's IEEE-754 bits little-endian byte by byte.
func fnvFloats(sum uint64, vals []float64) uint64 {
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			sum ^= uint64(byte(bits >> i))
			sum *= fnv64Prime
		}
	}
	return sum
}

// handleStream serves one streamed release. Validation, dataset
// resolution, budget reservation and noise policy are shared with the
// buffered path; what differs is that the workload-size cap is not
// checked (streaming exists for exactly those workloads) and the
// response is written incrementally.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, req *answerRequest) {
	if a := r.Header.Get("Accept"); a != "" &&
		!strings.Contains(a, "application/x-ndjson") && !strings.Contains(a, "*/*") {
		httpError(w, http.StatusNotAcceptable, "streamed releases are NDJSON; send Accept: application/x-ndjson")
		return
	}
	if req.Mode != "" && req.Mode != "answers" {
		httpError(w, http.StatusBadRequest,
			"streamed releases answer workloads (mode \"answers\"); estimates are cell-sized and fit the buffered path")
		return
	}
	if req.Dataset == "" {
		httpError(w, http.StatusBadRequest, "dataset name required for budget accounting")
		return
	}
	p := mm.Privacy{Epsilon: req.Epsilon, Delta: req.Delta}
	if err := p.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	chunkSize := req.ChunkSize
	if chunkSize <= 0 {
		chunkSize = mm.DefaultStreamChunk
	}
	if chunkSize > maxStreamChunk {
		chunkSize = maxStreamChunk
	}

	// Admission before any work: a server at its streaming limit refuses
	// immediately rather than holding the connection and its buffers.
	select {
	case s.streamSem <- struct{}{}:
	default:
		s.metrics.streamRejects.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable,
			"server is at its limit of concurrent streamed releases; retry shortly")
		return
	}
	defer func() { <-s.streamSem }()

	// Opt-in trace: the stream's noise + inference run inside
	// StreamRelease, recorded as one "release" span (the stage
	// breakdown is always on in am_release_stage_seconds); the chunk
	// loop is the "stream" span.
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace("stream", r.Header.Get(traceHeaderKey))
	}
	t0 := time.Now()

	s.mu.RLock()
	ent := s.strategies[req.Strategy]
	s.mu.RUnlock()
	if ent == nil {
		httpError(w, http.StatusNotFound, "unknown strategy %q", req.Strategy)
		return
	}

	hist, acctName, res, rerr := s.resolveAndReserve(req, ent, p)
	if rerr != nil {
		writeReleaseError(w, rerr)
		return
	}
	defer res.Refund()

	var noise mm.NoiseSource
	var cs *mm.CryptoSource
	if req.Seed != nil {
		noise = rand.New(rand.NewSource(*req.Seed))
	} else {
		cs = mm.AcquireCryptoSource()
		noise = cs
	}
	defer func() {
		if cs != nil {
			mm.ReleaseCryptoSource(cs)
		}
	}()

	mech := ent.plan.Mechanism
	tRel := time.Now()
	st, err := mech.StreamRelease(ent.plan.Workload, hist, p, noise, chunkSize)
	if err != nil {
		tr.Finish(http.StatusUnprocessableEntity)
		s.metrics.ring.Put(tr)
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	tr.AddSpan("release", tRel)
	defer st.Close()
	res.Commit()
	s.metrics.releases.Inc()
	ledger := fromAcct(s.acct.Spent(acctName))

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Answers follow incrementally; no Content-Length, net/http uses
	// chunked transfer encoding.
	w.WriteHeader(http.StatusOK)

	// One pooled buffer, reused record by record. The metadata record
	// leads so a client knows the row count and chunk size before the
	// first answer arrives.
	b := getBuf()
	defer putBuf(b)
	*b = append((*b)[:0], `{"stream":"answers","strategy":`...)
	*b = strconv.AppendQuote(*b, req.Strategy)
	*b = append(*b, `,"rows":`...)
	*b = strconv.AppendInt(*b, int64(st.Rows()), 10)
	*b = append(*b, `,"chunkSize":`...)
	*b = strconv.AppendInt(*b, int64(st.ChunkSize()), 10)
	*b = append(*b, `,"ledger":`...)
	*b = appendBudgetTrace(*b, ledger, tr)
	*b = append(*b, '}', '\n')
	if _, err := w.Write(*b); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}

	sum := fnv64Offset
	count := 0
	tStream := time.Now()
	for {
		off, chunk, ok := st.Next()
		if !ok {
			break
		}
		*b = append((*b)[:0], `{"offset":`...)
		*b = strconv.AppendInt(*b, int64(off), 10)
		*b = append(*b, `,"answers":`...)
		*b = appendFloats(*b, chunk)
		*b = append(*b, '}', '\n')
		if _, err := w.Write(*b); err != nil {
			// Client gone mid-stream; the budget is already committed (the
			// answers were computed and partially delivered).
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		sum = fnvFloats(sum, chunk)
		count += len(chunk)
	}

	tr.AddSpan("stream", tStream)
	*b = append((*b)[:0], `{"done":true,"count":`...)
	*b = strconv.AppendInt(*b, int64(count), 10)
	*b = append(*b, `,"checksum":"`...)
	*b = appendHex16(*b, sum)
	*b = append(*b, '"', '}', '\n')
	_, _ = w.Write(*b)
	if flusher != nil {
		flusher.Flush()
	}
	tr.Finish(http.StatusOK)
	s.metrics.ring.Put(tr)
	s.metrics.releaseSec.ObserveSince(t0)
}

// appendHex16 appends sum as exactly 16 lowercase hex digits.
func appendHex16(b []byte, sum uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(sum>>shift)&0xf])
	}
	return b
}
