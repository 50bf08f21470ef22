package server

import (
	"encoding/json"
	"errors"
	"fmt"
	//lint:allow noiserand: client-pinned seeds for reproducible releases against ad-hoc data; registered datasets refuse seeds unless -allow-seeded (see resolveAndReserve)
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivemm/internal/accountant"
	"adaptivemm/internal/fleet"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/obs"
	"adaptivemm/internal/registry"
)

// maxBatchReleases bounds one /release body; bigger jobs should be split
// into several requests so no single call monopolizes the server.
const maxBatchReleases = 256

// traceHeaderKey is fleet.TraceHeader in canonical form, so reading it
// does not build a canonicalized copy on every request.
var traceHeaderKey = http.CanonicalHeaderKey(fleet.TraceHeader)

// defaultBatchParallelism is how many releases of one batch run
// concurrently when the request does not choose.
const defaultBatchParallelism = 8

type answerRequest struct {
	Strategy string `json:"strategy"`
	Dataset  string `json:"dataset"`
	// Histogram carries the data inline; omit it to release against a
	// dataset registered via POST /datasets.
	Histogram []float64 `json:"histogram,omitempty"`
	Epsilon   float64   `json:"epsilon"`
	Delta     float64   `json:"delta"`
	// Seed pins the noise stream for reproducible experiments against
	// inline (ad-hoc) histograms. Absent (null) selects fresh
	// crypto-seeded noise; an explicit 0 is a valid seed, not "absent".
	// Releases against registered datasets refuse pinned seeds: the
	// requester could regenerate the stream, subtract the noise and
	// recover the exact data while paying only the nominal ε.
	Seed *int64 `json:"seed,omitempty"`
	// Mode selects the release payload: "answers" (default) returns the m
	// workload answers, "estimate" the n-cell histogram estimate.
	Mode string `json:"mode,omitempty"`
	// Stream selects the NDJSON streaming response on POST /release (see
	// stream.go): answers arrive chunk by chunk under chunked transfer
	// encoding, exempt from the buffered payload cap.
	Stream bool `json:"stream,omitempty"`
	// ChunkSize is the streamed chunk size in answers (default
	// mm.DefaultStreamChunk, server-clamped to maxStreamChunk).
	ChunkSize int `json:"chunkSize,omitempty"`
	// Trace opts this release into per-stage tracing: the response's
	// ledger block echoes the trace (id + spans), and the full record —
	// status, total duration — is
	// kept at GET /debug/traces. Tracing allocates, so it is never on
	// by default.
	Trace bool `json:"trace,omitempty"`
}

type answerResponse struct {
	Answers []float64 `json:"answers"`
	Ledger  Budget    `json:"ledger"`
}

// releaseError carries an HTTP status, a message, and — for budget
// refusals — the remaining budget to surface to the analyst.
type releaseError struct {
	code      int
	msg       string
	remaining *Budget
}

func (e *releaseError) Error() string { return e.msg }

func releaseErrorf(code int, format string, args ...any) *releaseError {
	return &releaseError{code: code, msg: fmt.Sprintf(format, args...)}
}

// releaseOut carries one successful release's answers, which live in a
// scratch rented from the mechanism's pool. Its caller encodes the
// answers and then calls done() to return the scratch; holding the
// scratch until encoding is what keeps the hot path free of a per-release
// answer copy.
type releaseOut struct {
	ans  []float64
	sc   *mm.ReleaseScratch
	mech *mm.Mechanism
}

// done returns the scratch to its mechanism's pool. The answers are
// invalid afterwards. Safe to call more than once.
func (o *releaseOut) done() {
	if o.sc != nil {
		o.mech.PutScratch(o.sc)
		o.sc = nil
		o.ans = nil
	}
}

// release runs one differentially private release end to end: validate,
// resolve the dataset, reserve budget, draw noise, infer, and commit (or
// refund on failure). It is the /answer entry point; the batch path calls
// releaseWith directly with its strategy snapshot.
func (s *Server) release(req *answerRequest, tr *obs.Trace) (releaseOut, Budget, *releaseError) {
	s.mu.RLock()
	ent := s.strategies[req.Strategy]
	s.mu.RUnlock()
	return s.releaseWith(req, ent, tr)
}

// releaseWith is the shared release core. ent is the caller's resolution
// of req.Strategy (nil for unknown): the batch path passes its snapshot so
// the aggregate payload pre-check and execution share one source of truth.
func (s *Server) releaseWith(req *answerRequest, ent *entry, tr *obs.Trace) (releaseOut, Budget, *releaseError) {
	t0 := time.Now()
	if req.Dataset == "" {
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusBadRequest, "dataset name required for budget accounting")
	}
	if req.Mode != "" && req.Mode != "answers" && req.Mode != "estimate" {
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusBadRequest, "mode %q not recognized (want answers or estimate)", req.Mode)
	}
	p := mm.Privacy{Epsilon: req.Epsilon, Delta: req.Delta}
	if err := p.Validate(); err != nil {
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusBadRequest, "%v", err)
	}
	if ent == nil {
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusNotFound, "unknown strategy %q", req.Strategy)
	}
	// Both modes share one response payload cap: m answers or n estimate
	// cells, either can be the oversized one.
	if req.Mode == "estimate" {
		if ent.plan.Mechanism.Shards() != nil {
			// A sharded plan estimates per-shard sub-histograms, not the
			// n-cell joint histogram (for marginal blocks the joint is never
			// measured); the honest payload is the workload answers.
			return releaseOut{}, Budget{}, releaseErrorf(http.StatusUnprocessableEntity,
				"strategy %q is sharded and has no single joint histogram estimate; request mode \"answers\" instead", req.Strategy)
		}
		if ent.plan.Workload.Cells() > maxAnswerRows {
			return releaseOut{}, Budget{}, releaseErrorf(http.StatusRequestEntityTooLarge,
				"histogram estimate has %d cells, past the %d-value response cap; a domain this large cannot be released over HTTP — use the library API",
				ent.plan.Workload.Cells(), maxAnswerRows)
		}
	} else if ent.plan.Workload.NumQueries() > maxAnswerRows {
		// Only point at estimate mode when it would actually fit.
		hint := "; a workload this large cannot be released over HTTP — use the library API"
		if ent.plan.Workload.Cells() <= maxAnswerRows {
			hint = "; request mode \"estimate\" instead"
		}
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusRequestEntityTooLarge,
			"workload has %d queries, past the %d-answer response cap%s",
			ent.plan.Workload.NumQueries(), maxAnswerRows, hint)
	}

	hist, acctName, res, rerr := s.resolveAndReserve(req, ent, p)
	if rerr != nil {
		return releaseOut{}, Budget{}, rerr
	}
	// Settle by defer: Refund after Commit is a no-op, and a panic in the
	// mechanism can never leak a reservation that would permanently shrink
	// the dataset's available budget.
	defer res.Refund()

	// Noise: deterministic only when the request pins a seed; the default
	// is a pooled crypto source, so "unseeded" releases are unpredictable
	// across requests and across server restarts while the hot path skips
	// per-release source construction.
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
	sc := mech.GetScratch()
	// The trace rides the scratch through the mechanism: stage spans
	// (answer/noise/infer) land on it from inside the release kernels. PutScratch clears it.
	sc.Trace = tr
	var ans []float64
	var err error
	if req.Mode == "estimate" {
		ans, err = mech.EstimateGaussianInto(sc, hist, p, noise)
	} else {
		ans, err = mech.AnswerGaussianInto(sc, ent.plan.Workload, hist, p, noise)
	}
	if err != nil {
		mech.PutScratch(sc)
		return releaseOut{}, Budget{}, releaseErrorf(http.StatusUnprocessableEntity, "%v", err)
	}
	res.Commit()
	s.metrics.releases.Inc()
	s.metrics.releaseSec.ObserveSince(t0)
	//lint:allow poolescape: intended ownership transfer — releaseOut carries the scratch to the response encoder, which returns it via done()
	return releaseOut{ans: ans, sc: sc, mech: mech}, fromAcct(s.acct.Spent(acctName)), nil
}

// resolveAndReserve resolves the request's histogram and reserves its
// budget while holding regMu, the same lock POST /datasets registers
// under, so the registered/inline classification of a name and the
// installation of its cap can never interleave with a reservation. It
// returns the accountant key actually charged: registered releases charge
// the dataset name (whose cap was installed before the dataset became
// resolvable), inline releases charge adHocPrefix+name — a disjoint
// namespace, so ad-hoc spend can neither pre-hollow a future cap nor
// squat a name against future registration.
func (s *Server) resolveAndReserve(req *answerRequest, ent *entry, p mm.Privacy) ([]float64, string, accountant.Reservation, *releaseError) {
	s.regMu.Lock()
	defer s.regMu.Unlock()

	hist := req.Histogram
	var acctName string
	if hist == nil {
		d, err := s.reg.Get(req.Dataset)
		if err != nil {
			if errors.Is(err, registry.ErrNotFound) {
				return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusNotFound,
					"dataset %q not registered; POST /datasets first or provide an inline histogram", req.Dataset)
			}
			return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusBadRequest, "%v", err)
		}
		hist = d.Histogram
		acctName = req.Dataset
	} else if _, err := s.reg.Get(req.Dataset); err == nil {
		return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusBadRequest,
			"dataset %q is registered; omit the inline histogram so releases answer the registered data", req.Dataset)
	} else {
		acctName = adHocPrefix + req.Dataset
	}
	if len(hist) != ent.plan.Workload.Cells() {
		return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusBadRequest,
			"histogram has %d cells, workload expects %d", len(hist), ent.plan.Workload.Cells())
	}
	// Accountant entries are never evicted, so brand-new ad-hoc names are
	// admitted only while the tracked-dataset count is under its bound —
	// otherwise a client cycling fresh names grows the ledger without
	// limit. regMu makes the check-then-reserve atomic.
	if acctName != req.Dataset && !s.acct.Tracked(acctName) && s.acct.Len() >= maxTrackedDatasets {
		return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusInsufficientStorage,
			"server is tracking its limit of %d dataset ledgers; reuse an existing dataset name or register the dataset", maxTrackedDatasets)
	}
	// A client-pinned seed lets the requester regenerate the noise stream,
	// subtract it from the answers and recover the exact registered data —
	// total privacy loss at nominal ε cost, nullifying the budget cap. The
	// deterministic path stays available for inline ad-hoc data (which the
	// client supplied in the first place) and behind a server-side debug
	// flag; reproducible experiments belong in the library API.
	if acctName == req.Dataset && req.Seed != nil && !s.allowSeeded {
		return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusForbidden,
			"seed refused: pinned noise seeds would make releases against registered dataset %q predictable and defeat its privacy budget; omit the seed (or run the server with seeded releases explicitly enabled for debugging)", req.Dataset)
	}

	// Reserve before drawing any noise: concurrent releases against one
	// capped dataset can never jointly overspend, and a refused release
	// costs nothing.
	res, err := s.acct.Reserve(acctName, accountant.Budget{Epsilon: p.Epsilon, Delta: p.Delta})
	if err != nil {
		var over *accountant.OverBudgetError
		if errors.As(err, &over) {
			s.metrics.refusals.Inc()
			rem := fromAcct(over.Remaining)
			return nil, "", accountant.Reservation{}, &releaseError{
				code:      http.StatusTooManyRequests,
				msg:       fmt.Sprintf("release refused: %v", err),
				remaining: &rem,
			}
		}
		return nil, "", accountant.Reservation{}, releaseErrorf(http.StatusBadRequest, "%v", err)
	}
	return hist, acctName, res, nil
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req answerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Stream {
		httpError(w, http.StatusBadRequest, "streaming releases are served by POST /release with \"stream\": true")
		return
	}
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace("answer", r.Header.Get(traceHeaderKey))
	}
	out, ledger, rerr := s.release(&req, tr)
	if rerr != nil {
		tr.Finish(rerr.code)
		s.metrics.ring.Put(tr)
		writeReleaseError(w, rerr)
		return
	}
	// The success body is numeric-only, so it is hand-encoded into a
	// pooled buffer (see jsonenc.go) and written once, with the scratch
	// held until the answers are serialized.
	b := getBuf()
	*b = append(*b, `{"answers":`...)
	tser := time.Now()
	*b = appendFloats(*b, out.ans)
	s.metrics.serializeSec.ObserveSince(tser)
	tr.AddSpan("serialize", tser)
	*b = append(*b, `,"ledger":`...)
	*b = appendBudgetTrace(*b, ledger, tr)
	*b = append(*b, '}', '\n')
	out.done()
	tr.Finish(http.StatusOK)
	s.metrics.ring.Put(tr)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*b)))
	_, _ = w.Write(*b)
	putBuf(b)
}

// writeReleaseError writes the error with the remaining budget attached
// for budget refusals.
func writeReleaseError(w http.ResponseWriter, e *releaseError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.code)
	body := map[string]any{"error": e.msg}
	if e.remaining != nil {
		body["remaining"] = *e.remaining
	}
	_ = json.NewEncoder(w).Encode(body)
}

// --- batch releases ---

type batchItem struct {
	Strategy string  `json:"strategy"`
	Dataset  string  `json:"dataset"`
	Epsilon  float64 `json:"epsilon"`
	Delta    float64 `json:"delta"`
	Seed     *int64  `json:"seed,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	// Trace opts this entry into per-stage tracing (see
	// answerRequest.Trace); the entry's ledger echoes the trace.
	Trace bool `json:"trace,omitempty"`
}

type batchRequest struct {
	Releases []batchItem `json:"releases"`
	// Parallelism bounds how many releases run concurrently (default 8,
	// capped at the batch size).
	Parallelism int `json:"parallelism,omitempty"`
}

// releaseRequest is the full POST /release body: either a batch
// ("releases") or one streamed release ("stream": true with the /answer
// fields inline). The embedded field sets are disjoint, so one decode
// serves both shapes and the handler branches on Stream.
type releaseRequest struct {
	batchRequest
	answerRequest
}

// batchResult is one entry of the batch response. The handler encodes
// successful entries by hand from Index, ledger and the entry's answers,
// and failed ones through encoding/json; Answers and Ledger spell the
// success fields for clients that decode the response.
type batchResult struct {
	Index   int       `json:"index"`
	Status  int       `json:"status"`
	Answers []float64 `json:"answers,omitempty"`
	Ledger  *Budget   `json:"ledger,omitempty"`
	Error   string    `json:"error,omitempty"`
	// Remaining reports the unspent budget for entries refused with 429.
	Remaining *Budget `json:"remaining,omitempty"`
	ledger    Budget  // the spend after a successful entry
}

type batchResponse struct {
	Results   []batchResult `json:"results"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
}

// batchState is one POST /release call's working set: the decoded
// request and the per-entry strategy snapshot, results, encoded answers,
// traces and response body. It is pooled, so a steady stream of batches
// reuses every slice, each entry's answer buffer and the body at their
// high-water marks instead of leaving them to the collector.
type batchState struct {
	req     releaseRequest
	ents    []*entry
	results []batchResult
	answers [][]byte // entry i's answers as a JSON array, on success
	body    []byte   // the response, assembled from answers and the rest
	traces  []*obs.Trace
	parent  string       // incoming X-AM-Trace, the traces' parent ID
	next    atomic.Int64 // the next entry a worker claims
	wg      sync.WaitGroup
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// getBatch rents a batch state whose request is zeroed. Releases keeps its
// backing array with zeroed elements: json.Unmarshal appends into it and
// must not see a previous batch's fields.
func getBatch() *batchState {
	st := batchPool.Get().(*batchState)
	rel := st.req.Releases
	clear(rel[:cap(rel)])
	st.req = releaseRequest{}
	st.req.Releases = rel[:0]
	return st
}

// putBatch drops the state's references to entries and traces and
// returns it to the pool. The answer buffers and the body share one
// maxPooledBuf cap: past it all of them go, so a pooled batch pins no
// more byte buffers than one pooled response would.
func putBatch(st *batchState) {
	clear(st.ents)
	clear(st.results)
	clear(st.traces)
	st.req.Histogram = nil
	answers := st.answers[:cap(st.answers)]
	kept := cap(st.body)
	for _, a := range answers {
		kept += cap(a)
	}
	if kept > maxPooledBuf {
		clear(answers)
		st.body = nil
	}
	batchPool.Put(st)
}

// resize returns s with length n. It keeps every element of s's backing
// array, reusing the array when n fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// handleRelease answers a batch of (strategy, dataset, privacy) triples
// concurrently with bounded parallelism. Entries reference registered
// datasets only — the point of the batch path is that request bodies stay
// small no matter how large the data is. Each entry reserves, releases
// and commits (or refunds) independently, so one over-budget or failing
// entry never poisons the rest of the batch.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	st := getBatch()
	defer putBatch(st)
	if !decodeJSON(w, r, &st.req) {
		return
	}
	req := &st.req
	if req.Stream {
		if len(req.Releases) > 0 {
			httpError(w, http.StatusBadRequest, "streamed releases take one strategy/dataset inline, not a batch; drop \"releases\" or \"stream\"")
			return
		}
		s.handleStream(w, r, &req.answerRequest)
		return
	}
	n := len(req.Releases)
	if n == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > maxBatchReleases {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d releases exceeds the %d-release cap; split the batch", n, maxBatchReleases)
		return
	}
	// Bound the aggregate response, not just each entry: 256 entries near
	// the per-request answer cap would buffer gigabytes before encoding.
	// The whole batch gets the same payload budget as one /answer. The
	// strategy table is snapshot once: an entry whose strategy is unknown
	// here fails with 404 even if a concurrent /design registers it before
	// the entry would execute — otherwise such entries would bypass this
	// aggregate cap.
	st.ents = resize(st.ents, n)
	s.mu.RLock()
	for i := range req.Releases {
		st.ents[i] = s.strategies[req.Releases[i].Strategy]
	}
	s.mu.RUnlock()
	var totalValues int
	for i, ent := range st.ents {
		if ent == nil {
			continue // failed below with 404, never executed
		}
		if req.Releases[i].Mode == "estimate" {
			totalValues += ent.plan.Workload.Cells()
		} else {
			totalValues += ent.plan.Workload.NumQueries()
		}
	}
	if totalValues > maxAnswerRows {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch would return %d answer values, past the %d-value response cap; use mode \"estimate\" or split the batch",
			totalValues, maxAnswerRows)
		return
	}

	par := req.Parallelism
	if par <= 0 {
		par = defaultBatchParallelism
	}
	par = min(par, n)

	st.results = resize(st.results, n)
	// Each worker encodes a successful entry's answers into answers[i]
	// and returns the entry's scratch at once.
	st.answers = resize(st.answers, n)
	// traces[i] is entry i's opt-in trace (nil without "trace": true);
	// the parent ID propagates from the incoming X-AM-Trace header.
	st.traces = resize(st.traces, n)
	st.parent = r.Header.Get(traceHeaderKey)
	// par workers, the handler's goroutine among them, claim entries by
	// an atomic index until none is left.
	st.next.Store(0)
	st.wg.Add(par - 1)
	for range par - 1 {
		go s.batchWorker(st)
	}
	s.runBatchEntries(st)
	st.wg.Wait()

	var succeeded, failed int
	for _, res := range st.results {
		if res.Status == http.StatusOK {
			succeeded++
		} else {
			failed++
		}
	}

	// Assemble the whole batch in the state's body and write it once.
	// Successful entries are numeric-only: their answers arrive encoded
	// from the workers, and the rest is written by hand. Failed entries
	// carry error strings and go through encoding/json for escaping (they
	// are off the hot path by definition).
	b := append(st.body[:0], `{"results":[`...)
	for i := range st.results {
		res, tr := &st.results[i], st.traces[i]
		if i > 0 {
			b = append(b, ',')
		}
		if res.Status == http.StatusOK {
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `,"status":200,"answers":`...)
			b = append(b, st.answers[i]...)
			b = append(b, `,"ledger":`...)
			b = appendBudgetTrace(b, res.ledger, tr)
			b = append(b, '}')
			tr.Finish(http.StatusOK)
			s.metrics.ring.Put(tr)
			continue
		}
		tr.Finish(res.Status)
		s.metrics.ring.Put(tr)
		enc, err := json.Marshal(res)
		if err != nil {
			// Unreachable for these field types; keep the body well-formed.
			enc = []byte(`{"index":` + strconv.Itoa(i) + `,"status":500,"error":"encoding failed"}`)
		}
		b = append(b, enc...)
	}
	b = append(b, `],"succeeded":`...)
	b = strconv.AppendInt(b, int64(succeeded), 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(failed), 10)
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
	st.body = b
}

// batchWorker is one of a batch's extra workers.
func (s *Server) batchWorker(st *batchState) {
	defer st.wg.Done()
	s.runBatchEntries(st)
}

// runBatchEntries runs the batch's entries one at a time until every
// entry is claimed.
func (s *Server) runBatchEntries(st *batchState) {
	for {
		i := int(st.next.Add(1) - 1)
		if i >= len(st.req.Releases) {
			return
		}
		s.runBatchEntry(st, i)
	}
}

// runBatchEntry releases entry i into st.results[i] and, on success,
// encodes its answers into st.answers[i] (the entry's serialize span)
// and returns its scratch.
func (s *Server) runBatchEntry(st *batchState, i int) {
	item := &st.req.Releases[i]
	if st.ents[i] == nil {
		st.results[i] = batchResult{Index: i, Status: http.StatusNotFound,
			Error: fmt.Sprintf("unknown strategy %q", item.Strategy)}
		return
	}
	// Unlike /answer, batch workers are not covered by net/http's
	// handler recover: an uncaught mechanism panic would crash the whole
	// server. Fail the one entry instead (its reservation is refunded by
	// releaseWith's deferred settle).
	defer func() {
		if r := recover(); r != nil {
			st.results[i] = batchResult{Index: i, Status: http.StatusInternalServerError,
				Error: fmt.Sprintf("internal error: %v", r)}
		}
	}()
	if item.Trace {
		st.traces[i] = obs.NewTrace("release", st.parent)
	}
	req := answerRequest{
		Strategy: item.Strategy,
		Dataset:  item.Dataset,
		Epsilon:  item.Epsilon,
		Delta:    item.Delta,
		Seed:     item.Seed,
		Mode:     item.Mode,
	}
	out, ledger, rerr := s.releaseWith(&req, st.ents[i], st.traces[i])
	if rerr != nil {
		st.results[i] = batchResult{Index: i, Status: rerr.code, Error: rerr.msg, Remaining: rerr.remaining}
		return
	}
	tser := time.Now()
	st.answers[i] = appendFloats(st.answers[i][:0], out.ans)
	st.traces[i].AddSpan("serialize", tser)
	out.done()
	st.results[i] = batchResult{Index: i, Status: http.StatusOK, ledger: ledger}
}
