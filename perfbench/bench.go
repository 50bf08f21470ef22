package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"adaptivemm/internal/fleet"
	"adaptivemm/internal/server"
	"adaptivemm/internal/wio"
	"adaptivemm/internal/workload"
)

// Release parameters: every release uses ε=0.5, δ=1e-4 and the server's
// production crypto noise source. The exactness check spends ε=1e6 on a
// dataset of its own, where noise is negligible next to the solve.
const (
	releaseEpsilon = 0.5
	releaseDelta   = 1e-4
	exactEpsilon   = 1e6

	benchDataset = "bench"
	exactDataset = "exact"
)

// bench is one run of one workload.
type bench struct {
	wd      workloadDef
	seed    int64
	seconds time.Duration
	// quick shrinks the repeat counts for the smoke test; its numbers are
	// not comparable with a full run.
	quick   bool
	workDir string

	hist []float64
	wl   *workload.Workload
	wx   []float64 // exact workload answers W·x

	tr *tracer // nil unless this is the traced run

	// design is what POST /design reported on the last server opened.
	design designReply

	ops, opsFailed int
	problems       []string
	stores         int // plan-store directories created so far
	rounds         int // slices of the untraced run's timed phase
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "server: "+format+"\n", args...)
}

func newBench(wd workloadDef, seed int64, seconds time.Duration, quick bool, workDir string) (*bench, error) {
	wl, err := wio.ParseWorkloadSpec(wd.spec, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	b := &bench{wd: wd, seed: seed, seconds: seconds, quick: quick, workDir: workDir, wl: wl, hist: wd.histogram(seed), rounds: rounds}
	if quick {
		b.rounds = 1
	}
	b.wx = wl.MulQueriesInto(make([]float64, wl.NumQueries()), b.hist)
	return b, nil
}

// live is one open server with its in-process client.
type live struct {
	srv      *server.Server
	c        *client
	dir      string
	strategy string
	// releases and exactReleases count the releases against benchDataset
	// and exactDataset this server accepted, for the ledger check.
	releases, exactReleases int
	// warm is set once the closed loop has warmed this server up.
	warm bool
}

type designReply struct {
	Strategy string `json:"strategy"`
	Cached   bool   `json:"cached"`
	Form     string `json:"form"`
	Planner  struct {
		Generator   string  `json:"generator"`
		ModeledCost float64 `json:"modeledCost"`
		Inference   string  `json:"inference"`
	} `json:"planner"`
}

// open builds a server on the plan store in dir and brings it to its first
// successful release: server.Open, POST /design, POST /datasets, one
// POST /release. wantCached says whether the plan must come from the store
// (a restart) or from a fresh design (a cold set-up). It returns the time
// the whole sequence took.
func (b *bench) open(dir string, wantCached bool) (*live, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.Open(server.Options{StoreDir: dir, Logf: b.logf})
	if err != nil {
		return nil, 0, fmt.Errorf("opening server: %w", err)
	}
	lv := &live{srv: srv, c: newClient(srv.Handler()), dir: dir}
	fail := func(err error) (*live, time.Duration, error) {
		lv.close(b)
		return nil, 0, err
	}
	var d designReply
	if err := lv.c.call(http.MethodPost, "/design", map[string]any{"workload": b.wd.spec}, &d, http.StatusOK); err != nil {
		return fail(err)
	}
	if d.Cached != wantCached {
		lv.c.failed++
		return fail(fmt.Errorf("POST /design cached=%t, want %t (a restart must rehydrate the stored plan, a cold set-up must design)", d.Cached, wantCached))
	}
	lv.strategy = d.Strategy
	if err := lv.c.call(http.MethodPost, "/datasets", map[string]any{"name": benchDataset, "histogram": b.hist}, nil, http.StatusOK); err != nil {
		return fail(err)
	}
	code, body := lv.c.do(http.MethodPost, "/release", releaseBody(lv.strategy, benchDataset, releaseEpsilon, 1, false))
	if err := newReplyShape(1, b.wl.Cells()).check(body, false); code != http.StatusOK || err != nil {
		lv.c.failed++
		return fail(fmt.Errorf("first release: status %d: %v", code, err))
	}
	elapsed := time.Since(t0)
	lv.releases = 1
	b.design = d
	return lv, elapsed, nil
}

// close flushes the server's plan store and folds its operation counts
// into the run's.
func (lv *live) close(b *bench) {
	if err := lv.srv.Close(); err != nil {
		b.fail("closing server: %v", err)
	}
	b.ops += lv.c.requests
	b.opsFailed += lv.c.failed
	lv.c.requests, lv.c.failed = 0, 0
}

// coldSetup times one cold set-up on an empty plan store.
func (b *bench) coldSetup() (*live, float64, error) {
	dir := filepath.Join(b.workDir, fmt.Sprintf("store-%d", b.stores))
	b.stores++
	runtime.GC()
	lv, d, err := b.open(dir, false)
	if err != nil {
		return nil, 0, fmt.Errorf("cold set-up: %w", err)
	}
	return lv, d.Seconds(), nil
}

// restart times one restart on the store in dir, which a closed server
// has flushed.
func (b *bench) restart(dir string) (*live, float64, error) {
	runtime.GC()
	lv, d, err := b.open(dir, true)
	if err != nil {
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	return lv, d.Seconds(), nil
}

// retire checks a server's ledger and closes it, flushing its store.
func (b *bench) retire(lv *live) {
	b.checkLedger(lv)
	lv.close(b)
}

// bringUp opens the server a run measures: a cold set-up, closed and
// restarted on its store, so it serves a rehydrated plan as a restarted
// production server does. It returns the server and both timings.
func (b *bench) bringUp() (lv *live, setup, restart float64, err error) {
	first, setup, err := b.coldSetup()
	if err != nil {
		return nil, 0, 0, err
	}
	b.retire(first)
	lv, restart, err = b.restart(first.dir)
	return lv, setup, restart, err
}

// share is how many of total repeats round r of n takes, spreading them
// evenly, round 0 taking at least one of a positive total.
func share(total, r, n int) int {
	ceil := func(a int) int { return (a + n - 1) / n }
	return ceil((r+1)*total) - ceil(r*total)
}

// endToEnd runs the untraced measurement. The timed server comes from
// bringUp and stays open throughout; its timed phase is cut into b.rounds
// slices, each after the round's share of set-ups and restarts. minReq is
// the least number of timed requests over all slices.
func (b *bench) endToEnd(minReq int) (lv *live, setups, restarts []float64, timed phase, err error) {
	lv, s, r, err := b.bringUp()
	if err != nil {
		return nil, nil, nil, timed, err
	}
	setups, restarts = []float64{s}, []float64{r}
	var restartDir string
	for round := range b.rounds {
		s, r, err := b.setupRound(round, &restartDir)
		if err != nil {
			lv.close(b)
			return nil, nil, nil, timed, err
		}
		setups, restarts = append(setups, s...), append(restarts, r...)
		need := 1
		if round == b.rounds-1 {
			need = minReq - timed.requests
		}
		timed.add(b.closedLoop(lv, b.seconds/time.Duration(b.rounds), need, false))
	}
	return lv, setups, restarts, timed, nil
}

// setupRound times round's share of the run's cold set-ups, each closed
// once timed, then its share of the restarts, on the store of the latest
// set-up; *dir tracks that store.
func (b *bench) setupRound(round int, dir *string) (setups, restarts []float64, err error) {
	for range share(b.wd.setups, round, b.rounds) {
		lv, s, err := b.coldSetup()
		if err != nil {
			return nil, nil, err
		}
		b.retire(lv)
		setups = append(setups, s)
		if *dir != "" {
			if err := os.RemoveAll(*dir); err != nil {
				return nil, nil, err
			}
		}
		*dir = lv.dir
	}
	for range share(b.wd.restarts, round, b.rounds) {
		lv, r, err := b.restart(*dir)
		if err != nil {
			return nil, nil, err
		}
		b.retire(lv)
		restarts = append(restarts, r)
	}
	return setups, restarts, nil
}

// tracedPhases runs the traced run's closed loop: untraced and traced
// slices alternate, each kind going first in every other round, so host
// drift cancels out of the tracing overhead.
func (b *bench) tracedPhases(lv *live) (untraced, traced phase) {
	n := max(1, b.rounds/3)
	for round := range n {
		for i := range 2 {
			tr := (round+i)%2 == 1
			p := b.closedLoop(lv, b.seconds/time.Duration(2*n), 1, tr)
			if tr {
				traced.add(p)
			} else {
				untraced.add(p)
			}
		}
	}
	return untraced, traced
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	lat      []float64 // client-side latency per request, seconds
	wall     float64   // phase wall time, seconds (span extraction excluded)
	requests int
	failed   int
	releases int
	bytes    int64
	mallocs  uint64
	// heapWindows holds each second's peak heap in use, heapMax the
	// absolute peak, in bytes.
	heapWindows []float64
	heapMax     uint64
}

// add folds another slice of the same phase into p.
func (p *phase) add(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.wall += q.wall
	p.requests += q.requests
	p.failed += q.failed
	p.releases += q.releases
	p.bytes += q.bytes
	p.mallocs += q.mallocs
	p.heapWindows = append(p.heapWindows, q.heapWindows...)
	p.heapMax = max(p.heapMax, q.heapMax)
}

func (p phase) releasesPerSec() float64 { return float64(p.releases) / p.wall }

// warmUp sends untimed requests so the server's scratch, noise-source and
// buffer pools reach their steady state. A server warmed before gets one
// request, to bring its working set back into cache.
func (b *bench) warmUp(lv *live, hr *hotRequest, shape replyShape, traced bool) {
	deadline, least := time.Now().Add(min(500*time.Millisecond, b.seconds/4)), 3
	if lv.warm {
		deadline, least = time.Now(), 1
	}
	lv.warm = true
	for n := 0; n < least || time.Now().Before(deadline); n++ {
		lv.c.send(hr)
		if err := b.settle(lv, shape, traced); err != nil {
			b.fail("warm-up request: %v", err)
		}
	}
}

// settle checks one batch reply and books its releases; it returns the
// check error, counting a failed reply as a failed operation.
func (b *bench) settle(lv *live, shape replyShape, traced bool) error {
	err := shape.check(lv.c.rec.body, traced)
	if lv.c.rec.code != http.StatusOK && err == nil {
		err = fmt.Errorf("status %d", lv.c.rec.code)
	}
	if err == nil {
		lv.releases += shape.batch
		return nil
	}
	lv.c.failed++
	var r batchReply
	if json.Unmarshal(lv.c.rec.body, &r) == nil {
		lv.releases += r.Succeeded
	}
	return err
}

// closedLoop runs one client that sends the next POST /release only after
// the previous reply, for at least d and at least minReq requests. With
// traced set, every release carries "trace": true and the echoed stage
// spans go to the tracer.
func (b *bench) closedLoop(lv *live, d time.Duration, minReq int, traced bool) phase {
	batch := b.wd.batch
	shape := newReplyShape(batch, b.wl.Cells())
	hr := newHotRequest(releaseBody(lv.strategy, benchDataset, releaseEpsilon, batch, traced))
	b.warmUp(lv, hr, shape, traced)
	lv.c.rec.stampWrite = traced
	defer func() { lv.c.rec.stampWrite = false }()

	p := phase{lat: make([]float64, 0, 1<<14)}
	var firstErr error
	hardStop := 3*d + 60*time.Second
	// Two cycles: a closed server's mechanisms embed sync.Pools, which
	// the runtime keeps through one more cycle, with their operators.
	runtime.GC()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopHeap := sampleHeap(2 * time.Millisecond)
	start := time.Now()
	var paused time.Duration
	for n := 0; ; n++ {
		var reqID string
		if traced {
			reqID = fmt.Sprintf("%016x", uint64(b.seed)<<32|uint64(n))
			hr.req.Header.Set(fleet.TraceHeader, reqID)
		}
		t0, lat := lv.c.send(hr)
		p.lat = append(p.lat, lat.Seconds())
		p.requests++
		p.bytes += int64(len(lv.c.rec.body))
		before := lv.releases
		if err := b.settle(lv, shape, traced); err != nil {
			p.failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		p.releases += lv.releases - before
		if traced {
			ps := time.Now()
			if err := b.recordRequest(lv, reqID, t0, t0.Add(lat)); err != nil {
				p.failed++
				if firstErr == nil {
					firstErr = err
				}
			}
			paused += time.Since(ps)
		}
		el := time.Since(start) - paused
		if (el >= d && p.requests >= minReq) || el >= hardStop {
			break
		}
	}
	p.wall = (time.Since(start) - paused).Seconds()
	p.heapWindows, p.heapMax = stopHeap()
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	if firstErr != nil {
		b.fail("%d of %d timed requests failed; first: %v", p.failed, p.requests, firstErr)
	}
	return p
}

// sampleHeap polls the Go heap in use (live plus not yet swept objects)
// every interval until the returned stop function is called, which
// returns each whole second's peak (or the peak so far, for a run shorter
// than a second) and the absolute peak.
func sampleHeap(every time.Duration) (stop func() (perSecond []float64, peak uint64)) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	type out struct {
		windows []float64
		peak    uint64
	}
	res := make(chan out)
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var o out
		var cur uint64
		start := time.Now()
		read := func() {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			cur, o.peak = max(cur, v), max(o.peak, v)
			if time.Since(start) >= time.Second {
				o.windows = append(o.windows, float64(cur))
				cur, start = 0, time.Now()
			}
		}
		read()
		for {
			select {
			case <-done:
				read()
				if len(o.windows) == 0 {
					o.windows = append(o.windows, float64(cur))
				}
				res <- o
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() ([]float64, uint64) {
		close(done)
		o := <-res
		return o.windows, o.peak
	}
}

// echoTrace is one release's trace as echoed in its ledger block.
type echoTrace struct {
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Spans  []struct {
		Name  string `json:"name"`
		Start int64  `json:"startMicros"`
		End   int64  `json:"endMicros"`
	} `json:"spans"`
}

// echoedTraces extracts the trace objects of a traced batch reply, in
// result order, decoding only those objects.
func echoedTraces(body []byte) ([]echoTrace, error) {
	key := []byte(`"trace":`)
	var out []echoTrace
	for pos := 0; ; {
		i := bytes.Index(body[pos:], key)
		if i < 0 {
			return out, nil
		}
		start := pos + i + len(key)
		dec := json.NewDecoder(bytes.NewReader(body[start:]))
		var et echoTrace
		if err := dec.Decode(&et); err != nil {
			return nil, fmt.Errorf("decoding echoed trace: %w", err)
		}
		out = append(out, et)
		pos = start + int(dec.InputOffset())
	}
}

// recordRequest turns one traced request into spans: the client's own
// request span, and every release's answer/noise/infer/serialize spans as
// its children. Echoed spans are offsets from each release's own trace
// start; the starts are recovered from GET /debug/traces durations, using
// that the handler serializes results in order, each release's trace
// finishing just before the next one's serialize span starts and the last
// one just before the response is written.
func (b *bench) recordRequest(lv *live, reqID string, t0, t1 time.Time) error {
	ets, err := echoedTraces(lv.c.rec.body)
	if err != nil {
		return err
	}
	if len(ets) != b.wd.batch {
		return fmt.Errorf("traced reply echoes %d traces, want %d", len(ets), b.wd.batch)
	}
	writeAt := lv.c.rec.firstWrite
	var tr struct {
		Traces []struct {
			ID             string  `json:"id"`
			DurationMillis float64 `json:"durationMillis"`
		} `json:"traces"`
	}
	if err := lv.c.call(http.MethodGet, fmt.Sprintf("/debug/traces?route=release&n=%d", len(ets)), nil, &tr, http.StatusOK); err != nil {
		return err
	}
	dur := map[string]int64{}
	for _, t := range tr.Traces {
		dur[t.ID] = int64(math.Round(t.DurationMillis * 1e6))
	}
	// Echoed offsets are truncated to whole microseconds: add half of one.
	const half = 500
	at := func(us int64) int64 { return us*1000 + half }
	serStart := func(et echoTrace) (int64, bool) {
		for _, s := range et.Spans {
			if s.Name == "serialize" {
				return at(s.Start), true
			}
		}
		return 0, false
	}
	begins := make([]int64, len(ets))
	for i := len(ets) - 1; i >= 0; i-- {
		et := ets[i]
		if et.Parent != reqID {
			return fmt.Errorf("echoed trace %s has parent %q, want %q", et.ID, et.Parent, reqID)
		}
		d, ok := dur[et.ID]
		if !ok {
			return fmt.Errorf("trace %s missing from GET /debug/traces", et.ID)
		}
		end := b.tr.ns(writeAt)
		if i < len(ets)-1 {
			s0, ok := serStart(ets[i+1])
			if !ok {
				return fmt.Errorf("trace %s has no serialize span", ets[i+1].ID)
			}
			end = begins[i+1] + s0
		}
		begins[i] = end - d
	}
	reqSpan := b.tr.add("server.request", 0, reqID, b.tr.ns(t0), b.tr.ns(t1), 1)
	for i, et := range ets {
		for _, s := range et.Spans {
			name := "mm." + s.Name
			if s.Name == "serialize" {
				name = "server.serialize"
			}
			b.tr.add(name, reqSpan, reqID, begins[i]+at(s.Start), begins[i]+at(s.End), 1)
		}
	}
	return nil
}

// accuracy sends releases untimed, decodes every reply in full, checks
// each result, and returns the RMSE of W·x̂ against W·x over all queries
// and releases.
func (b *bench) accuracy(lv *live, releases int) float64 {
	batch := min(b.wd.batch, releases)
	body := releaseBody(lv.strategy, benchDataset, releaseEpsilon, batch, false)
	m := b.wl.NumQueries()
	wxhat := make([]float64, m)
	var sum float64
	var n int
	for done := 0; done < releases; done += batch {
		code, resp := lv.c.do(http.MethodPost, "/release", body)
		est, err := decodeEstimates(code, resp, batch, b.wl.Cells())
		if err != nil {
			lv.c.failed++
			b.fail("accuracy release: %v", err)
			return math.NaN()
		}
		lv.releases += batch
		for _, xhat := range est {
			b.wl.MulQueriesInto(wxhat, xhat)
			for i, v := range wxhat {
				d := v - b.wx[i]
				sum += d * d
			}
			n++
		}
	}
	return math.Sqrt(sum / float64(n*m))
}

// decodeEstimates fully decodes a batch reply and checks that every
// release succeeded with cells finite values.
func decodeEstimates(code int, body []byte, batch, cells int) ([][]float64, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.300s", code, body)
	}
	if bytes.Contains(body, []byte("null")) {
		return nil, fmt.Errorf("reply holds a non-finite value")
	}
	var r batchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if r.Succeeded != batch || r.Failed != 0 || len(r.Results) != batch {
		return nil, fmt.Errorf("%d of %d releases succeeded", r.Succeeded, batch)
	}
	out := make([][]float64, batch)
	for i, res := range r.Results {
		if res.Status != http.StatusOK || len(res.Answers) != cells {
			return nil, fmt.Errorf("result %d: status %d with %d values (%q), want 200 with %d", i, res.Status, len(res.Answers), res.Error, cells)
		}
		for _, v := range res.Answers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("result %d holds a non-finite value", i)
			}
		}
		out[i] = res.Answers
	}
	return out, nil
}

// checkExact releases once at ε=1e6 against a dataset of its own and
// checks W·x̂ against the exact W·x: with noise that small, a solver that
// stops early or solves the wrong system shows. It returns the observed
// relative error.
func (b *bench) checkExact(lv *live) float64 {
	if err := lv.c.call(http.MethodPost, "/datasets", map[string]any{"name": exactDataset, "histogram": b.hist}, nil, http.StatusOK); err != nil {
		b.fail("registering the exactness dataset: %v", err)
		return math.NaN()
	}
	code, resp := lv.c.do(http.MethodPost, "/release", releaseBody(lv.strategy, exactDataset, exactEpsilon, 1, false))
	est, err := decodeEstimates(code, resp, 1, b.wl.Cells())
	if err != nil {
		lv.c.failed++
		b.fail("exactness release: %v", err)
		return math.NaN()
	}
	lv.exactReleases++
	wxhat := b.wl.MulQueriesInto(make([]float64, b.wl.NumQueries()), est[0])
	var maxErr, scale float64
	for i, v := range wxhat {
		maxErr = max(maxErr, math.Abs(v-b.wx[i]))
		scale = max(scale, math.Abs(b.wx[i]))
	}
	rel := maxErr / max(1, scale)
	if rel > exactTol {
		b.fail("release at ε=%g: max|W·x̂ − W·x| = %.3g of max|W·x| = %.3g, past the %.0e tolerance", exactEpsilon, maxErr, scale, exactTol)
	}
	return rel
}

// checkLedger requires GET /ledger to show exactly the spend of the
// releases this server accepted.
func (b *bench) checkLedger(lv *live) {
	var ledger map[string]struct{ Epsilon, Delta float64 }
	if err := lv.c.call(http.MethodGet, "/ledger", nil, &ledger, http.StatusOK); err != nil {
		b.fail("%v", err)
		return
	}
	check := func(ds string, n int, eps float64) {
		got := ledger[ds] // absent when nothing was spent: zero
		// A sum of n copies of 0.5 (or one 1e6) is exact in float64.
		if got.Epsilon != float64(n)*eps {
			b.fail("ledger for %q shows ε=%g, want %d releases × %g = %g", ds, got.Epsilon, n, eps, float64(n)*eps)
		}
		if want := float64(n) * releaseDelta; math.Abs(got.Delta-want) > 1e-9*want {
			b.fail("ledger for %q shows δ=%g, want %g", ds, got.Delta, want)
		}
	}
	check(benchDataset, lv.releases, releaseEpsilon)
	check(exactDataset, lv.exactReleases, exactEpsilon)
}
