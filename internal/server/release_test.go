package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adaptivemm/internal/planner"
	"adaptivemm/internal/wio"
)

// designOn posts a /design request and returns the decoded response.
func designOn(t *testing.T, ts *httptest.Server, req map[string]any) designResponse {
	t.Helper()
	resp, body := post(t, ts, "/design", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func registerDataset(t *testing.T, ts *httptest.Server, name string, hist []float64, cap *Budget) {
	t.Helper()
	req := map[string]any{"name": name, "histogram": hist}
	if cap != nil {
		req["cap"] = cap
	}
	resp, body := post(t, ts, "/datasets", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d: %s", resp.StatusCode, body)
	}
}

func TestDatasetRegistryRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})

	registerDataset(t, ts, "adult", []float64{1, 2, 3, 4}, &Budget{Epsilon: 2, Delta: 1e-3})

	// Duplicate registration conflicts.
	resp, _ := post(t, ts, "/datasets", map[string]any{"name": "adult", "histogram": []float64{9, 9, 9, 9}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate registration status %d", resp.StatusCode)
	}

	// A release referencing the registered dataset needs no histogram.
	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registered release status %d: %s", resp.StatusCode, body)
	}

	// Inline histograms conflict with registered data.
	resp, _ = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "histogram": []float64{1, 2, 3, 4},
		"epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inline histogram for registered dataset: status %d", resp.StatusCode)
	}

	// Unknown datasets without an inline histogram are 404.
	resp, _ = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "ghost", "epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", resp.StatusCode)
	}

	// GET /datasets reports cells, cap, spend and remaining budget.
	resp2, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list map[string]datasetInfo
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	info, ok := list["adult"]
	if !ok || info.Cells != 4 || info.Cap == nil || info.Cap.Epsilon != 2 {
		t.Fatalf("dataset listing: %+v", list)
	}
	if info.Spent.Epsilon != 0.5 || info.Remaining == nil || math.Abs(info.Remaining.Epsilon-1.5) > 1e-9 {
		t.Fatalf("spend/remaining: %+v", info)
	}
}

// TestBudgetCapRefusal is the acceptance scenario: a capped dataset
// refuses the release that would exceed its budget with HTTP 429 and the
// remaining budget in the body, while in-cap releases keep succeeding.
func TestBudgetCapRefusal(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})
	registerDataset(t, ts, "capped", []float64{5, 6, 7, 8}, &Budget{Epsilon: 1, Delta: 1e-2})

	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "capped", "epsilon": 0.6, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap release status %d: %s", resp.StatusCode, body)
	}

	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "capped", "epsilon": 0.6, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap release status %d: %s", resp.StatusCode, body)
	}
	var refusal struct {
		Error     string `json:"error"`
		Remaining Budget `json:"remaining"`
	}
	if err := json.Unmarshal(body, &refusal); err != nil {
		t.Fatal(err)
	}
	if refusal.Error == "" || math.Abs(refusal.Remaining.Epsilon-0.4) > 1e-9 {
		t.Fatalf("refusal body: %s", body)
	}

	// The refused release must not have charged anything: a smaller
	// release that fits the remaining budget still succeeds.
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "capped", "epsilon": 0.4, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remaining-budget release status %d: %s", resp.StatusCode, body)
	}
	var a answerResponse
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Ledger.Epsilon-1.0) > 1e-9 {
		t.Fatalf("ledger after exact-cap spend: %+v", a.Ledger)
	}
}

// TestConcurrentCappedReleases races many in-cap releases against one
// capped dataset: all must succeed and the committed spend must come out
// exact. Run under -race in CI.
func TestConcurrentCappedReleases(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:8"})
	hist := make([]float64, 8)
	registerDataset(t, ts, "shared", hist, &Budget{Epsilon: 10, Delta: 1})

	reqBody, err := json.Marshal(map[string]any{
		"strategy": d.Strategy, "dataset": "shared",
		"epsilon": 0.1, "delta": 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const releases = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < releases; i++ {
				resp, err := http.Post(ts.URL+"/answer", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("concurrent in-cap release status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	want := 0.1 * workers * releases
	if got := ledger["shared"].Epsilon; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ledger epsilon = %g, want %g", got, want)
	}
}

// TestUnseededNoiseUnpredictable covers the headline bugfix: "unseeded"
// releases must draw fresh noise per release and per server instance —
// the old counter seeding repeated the identical stream after every
// restart.
func TestUnseededNoiseUnpredictable(t *testing.T) {
	hist := []float64{10, 20, 30, 40}
	run := func() []float64 {
		ts := httptest.NewServer(New().Handler())
		defer ts.Close()
		d := designOn(t, ts, map[string]any{"workload": "identity:4"})
		resp, body := post(t, ts, "/answer", map[string]any{
			"strategy": d.Strategy, "dataset": "db", "histogram": hist,
			"epsilon": 0.5, "delta": 1e-4,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer status %d: %s", resp.StatusCode, body)
		}
		var a answerResponse
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		return a.Answers
	}
	// Two fresh server instances simulate a restart: the first unseeded
	// release of each used to be identical.
	first, second := run(), run()
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("unseeded releases identical across restarts: %v", first)
	}
}

// TestExplicitZeroSeedHonored: seed 0 used to be conflated with "absent"
// and silently replaced by the salt counter; as a *int64 it now pins the
// stream like any other seed.
func TestExplicitZeroSeedHonored(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})
	req := map[string]any{
		"strategy": d.Strategy, "dataset": "db", "histogram": []float64{1, 2, 3, 4},
		"epsilon": 1, "delta": 1e-4, "seed": 0,
	}
	var a1, a2 answerResponse
	_, b1 := post(t, ts, "/answer", req)
	_, b2 := post(t, ts, "/answer", req)
	if err := json.Unmarshal(b1, &a1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &a2); err != nil {
		t.Fatal(err)
	}
	for i := range a1.Answers {
		if a1.Answers[i] != a2.Answers[i] {
			t.Fatal("seed 0 produced different answers across releases")
		}
	}
}

// TestSeededReleaseRefusedOnRegisteredDataset: a client-pinned seed lets
// the requester regenerate the noise stream and recover the exact
// registered data at nominal ε cost, so the engine refuses it with 403
// unless the server explicitly opts in for debugging.
func TestSeededReleaseRefusedOnRegisteredDataset(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})
	registerDataset(t, ts, "adult", []float64{1, 2, 3, 4}, &Budget{Epsilon: 2, Delta: 1e-3})

	// Seeded release against registered data: refused, and nothing charged.
	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.5, "delta": 1e-4, "seed": 42,
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("seeded registered release status %d: %s", resp.StatusCode, body)
	}
	resp2, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp2.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if _, charged := ledger["adult"]; charged {
		t.Fatalf("refused seeded release charged the ledger: %+v", ledger)
	}

	// The same seed on the batch path is refused per entry too.
	resp, body = post(t, ts, "/release", map[string]any{
		"releases": []map[string]any{
			{"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.5, "delta": 1e-4, "seed": 42},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Failed != 1 || br.Results[0].Status != http.StatusForbidden {
		t.Fatalf("seeded batch entry not refused: %s", body)
	}

	// Unseeded releases against the registered dataset still work.
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unseeded registered release status %d: %s", resp.StatusCode, body)
	}

	// A debug server with AllowSeededReleases honors the seed again.
	dbg := httptest.NewServer(NewWithOptions(Options{AllowSeededReleases: true}).Handler())
	defer dbg.Close()
	dd := designOn(t, dbg, map[string]any{"workload": "identity:4"})
	registerDataset(t, dbg, "adult", []float64{1, 2, 3, 4}, nil)
	resp, body = post(t, dbg, "/answer", map[string]any{
		"strategy": dd.Strategy, "dataset": "adult", "epsilon": 0.5, "delta": 1e-4, "seed": 42,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug-server seeded release status %d: %s", resp.StatusCode, body)
	}
}

// TestCapValidation: negative cap components would read as "unlimited" in
// the accountant, so a typo like {"epsilon": -1} must 400 instead of
// silently uncapping the dataset; the all-zero cap is equally meaningless.
func TestCapValidation(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	for i, cap := range []map[string]any{
		{"epsilon": -1.0, "delta": 1e-3},
		{"epsilon": 1.0, "delta": -1e-3},
		{"epsilon": 0.0, "delta": 0.0},
	} {
		resp, body := post(t, ts, "/datasets", map[string]any{
			"name": fmt.Sprintf("d%d", i), "histogram": []float64{1, 2}, "cap": cap,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cap case %d accepted: status %d: %s", i, resp.StatusCode, body)
		}
	}
	// A legitimate one-sided cap still registers.
	resp, body := post(t, ts, "/datasets", map[string]any{
		"name": "ok", "histogram": []float64{1, 2}, "cap": map[string]any{"epsilon": 1.0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-sided cap refused: status %d: %s", resp.StatusCode, body)
	}
}

// TestAdHocSpendIsolatedFromRegisteredCap: inline releases are accounted
// in the "adhoc:" namespace, so a client can neither pre-spend a name with
// uncapped inline releases to hollow out a cap installed later, nor squat
// a name to block its registration.
func TestAdHocSpendIsolatedFromRegisteredCap(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})

	// Heavy ad-hoc spend on the name before it exists as a dataset.
	resp, body := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "histogram": []float64{1, 2, 3, 4},
		"epsilon": 5, "delta": 1e-3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ad-hoc release status %d: %s", resp.StatusCode, body)
	}

	// Registration still succeeds, with a cap far below the ad-hoc spend …
	registerDataset(t, ts, "adult", []float64{9, 9, 9, 9}, &Budget{Epsilon: 1, Delta: 1e-3})

	// … and the cap starts whole: a 0.9 release fits, the next one is
	// refused — the prior ε=5 never counted against the registered budget.
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.9, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh-cap release status %d: %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "adult", "epsilon": 0.9, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap release status %d", resp.StatusCode)
	}

	// The ledger keeps the two spends apart.
	resp2, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp2.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ledger["adhoc:adult"].Epsilon-5) > 1e-9 || math.Abs(ledger["adult"].Epsilon-0.9) > 1e-9 {
		t.Fatalf("ad-hoc and registered spend not isolated: %+v", ledger)
	}

	// The ad-hoc namespace itself cannot be registered into.
	resp, _ = post(t, ts, "/datasets", map[string]any{
		"name": "adhoc:adult", "histogram": []float64{1, 2, 3, 4},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved-prefix registration status %d", resp.StatusCode)
	}
}

// TestEstimatePayloadCap: mode "estimate" returns n values, so it must
// honor the same response payload cap as answers mode — otherwise a
// single /answer against a multi-million-cell domain would buffer tens of
// MB of JSON the batch endpoint's aggregate check would refuse. The
// strategy is installed directly (design on a 2^21-cell domain is too
// slow for a test).
func TestEstimatePayloadCap(t *testing.T) {
	wl, err := wio.ParseWorkloadSpec("allrange:1024x1024x2", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Cells() <= maxAnswerRows {
		t.Fatalf("domain too small to exercise the cap: %d cells", wl.Cells())
	}
	plan, err := planner.New(planner.Config{}).Plan(wl, planner.Hints{Generator: "hierarchical"})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.strategies["s1"] = &entry{plan: plan}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, mode := range []string{"estimate", ""} {
		resp, body := post(t, ts, "/answer", map[string]any{
			"strategy": "s1", "dataset": "huge", "epsilon": 1, "delta": 1e-4, "mode": mode,
		})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("mode %q status %d: %s", mode, resp.StatusCode, body)
		}
	}
}

// TestRegistryHistogramCap: registered histograms are retained forever,
// so the registry refuses ones past the cell cap (they could not be
// released over HTTP anyway).
func TestRegistryHistogramCap(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/datasets", map[string]any{
		"name": "huge", "histogram": make([]float64, maxHistogramCells+1),
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized histogram status %d: %s", resp.StatusCode, body)
	}
}

// TestStrategyCacheHit: repeated /design of the same canonical spec
// returns the cached strategy id without re-running design.
func TestStrategyCacheHit(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	d1 := designOn(t, ts, map[string]any{"workload": "allrange:2048"})
	if d1.Cached {
		t.Fatalf("first design reported cached: %+v", d1)
	}
	d2 := designOn(t, ts, map[string]any{"workload": "allrange:2048"})
	if !d2.Cached || d2.Strategy != d1.Strategy {
		t.Fatalf("second design not served from cache: %+v vs %+v", d2, d1)
	}
	// Canonicalization: case and whitespace do not defeat the cache.
	d3 := designOn(t, ts, map[string]any{"workload": "  AllRange:2048 "})
	if !d3.Cached || d3.Strategy != d1.Strategy {
		t.Fatalf("canonicalized spec missed the cache: %+v", d3)
	}
	// A different spec is a different strategy.
	d4 := designOn(t, ts, map[string]any{"workload": "identity:16"})
	if d4.Cached || d4.Strategy == d1.Strategy {
		t.Fatalf("distinct spec served from cache: %+v", d4)
	}
	// Randomized specs sample by seed, so the seed is part of the key.
	r1 := designOn(t, ts, map[string]any{"workload": "randomrange:8:16", "seed": 1})
	r2 := designOn(t, ts, map[string]any{"workload": "randomrange:8:16", "seed": 2})
	if r2.Cached || r2.Strategy == r1.Strategy {
		t.Fatalf("different seeds shared a cache slot: %+v vs %+v", r1, r2)
	}
}

// TestDesignPrivacyDefaulting: a request carrying only ε (or only δ) is
// valid; the omitted field defaults independently and the response echoes
// the pair actually used.
func TestDesignPrivacyDefaulting(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	d := designOn(t, ts, map[string]any{"workload": "identity:4", "epsilon": 2.0})
	if d.Epsilon != 2.0 || d.Delta != defaultDelta {
		t.Fatalf("epsilon-only design used (ε=%g, δ=%g)", d.Epsilon, d.Delta)
	}
	if d.ExpectedError <= 0 {
		t.Fatalf("expected error missing: %+v", d)
	}

	d = designOn(t, ts, map[string]any{"workload": "identity:4", "delta": 1e-6})
	if d.Epsilon != defaultEpsilon || d.Delta != 1e-6 {
		t.Fatalf("delta-only design used (ε=%g, δ=%g)", d.Epsilon, d.Delta)
	}

	// Invalid explicit values are still rejected.
	resp, _ := post(t, ts, "/design", map[string]any{"workload": "identity:4", "epsilon": -1.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative epsilon status %d", resp.StatusCode)
	}
}

// TestRaggedRowsRejected: every row is validated, and the error names the
// offending row.
func TestRaggedRowsRejected(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{
		"rows":  [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1}},
		"shape": []int{4},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged rows status %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if got := e["error"]; got != "row 2 has 2 columns, want 4" {
		t.Fatalf("ragged row error %q", got)
	}
}

// TestBatchRelease covers the batch endpoint's partial-failure semantics:
// successful entries commit, refused or failing entries charge nothing.
func TestBatchRelease(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "identity:4"})
	registerDataset(t, ts, "b", []float64{1, 2, 3, 4}, &Budget{Epsilon: 0.25, Delta: 1e-2})
	registerDataset(t, ts, "free", []float64{4, 3, 2, 1}, nil)

	resp, body := post(t, ts, "/release", map[string]any{
		"parallelism": 4,
		"releases": []map[string]any{
			// Two 0.2-entries race for a 0.25 cap: exactly one commits.
			{"strategy": d.Strategy, "dataset": "b", "epsilon": 0.2, "delta": 1e-4},
			{"strategy": d.Strategy, "dataset": "b", "epsilon": 0.2, "delta": 1e-4},
			{"strategy": "bogus", "dataset": "b", "epsilon": 0.1, "delta": 1e-4},
			{"strategy": d.Strategy, "dataset": "free", "epsilon": 0.3, "delta": 1e-4, "mode": "estimate"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 2 || br.Failed != 2 || len(br.Results) != 4 {
		t.Fatalf("batch outcome: %s", body)
	}
	var saw429, saw404 bool
	for _, res := range br.Results {
		switch res.Status {
		case http.StatusOK:
			if len(res.Answers) != 4 || res.Ledger == nil {
				t.Fatalf("successful entry missing payload: %+v", res)
			}
		case http.StatusTooManyRequests:
			saw429 = true
			if res.Remaining == nil || math.Abs(res.Remaining.Epsilon-0.05) > 1e-9 {
				t.Fatalf("429 entry remaining: %+v", res)
			}
		case http.StatusNotFound:
			saw404 = true
		default:
			t.Fatalf("unexpected entry status: %+v", res)
		}
	}
	if !saw429 || !saw404 {
		t.Fatalf("expected one 429 and one 404 entry: %s", body)
	}

	// Ledger: exactly one 0.2 release committed on "b", the failed ones
	// refunded/uncharged; "free" carries its 0.3.
	resp2, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp2.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if got := ledger["b"].Epsilon; math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("capped dataset spend %g, want exactly one committed 0.2", got)
	}
	if got := ledger["free"].Epsilon; math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("uncapped dataset spend %g", got)
	}
}

// TestBatchEncodingMatchesAnswer: a mixed batch under parallelism 2
// (successes in both modes on a tree and a dense strategy, a 404, a 429
// and two traced entries) reads back as the handler's serial encoder
// wrote it. Each success's answers are the bytes /answer writes for the
// same seeded release and re-encode identically, a traced entry's ledger
// holds its serialize span, and the whole body is rebuilt byte for byte
// from its decoded entries in index order.
func TestBatchEncodingMatchesAnswer(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(Options{AllowSeededReleases: true}).Handler())
	defer ts.Close()
	tree := designOn(t, ts, map[string]any{"workload": "allrange:1024"})
	small := designOn(t, ts, map[string]any{"workload": "allrange:16"})
	hist := func(n int) []float64 {
		h := make([]float64, n)
		for i := range h {
			h[i] = float64(i % 7)
		}
		return h
	}
	registerDataset(t, ts, "tree", hist(1024), nil)
	registerDataset(t, ts, "small", hist(16), nil)
	registerDataset(t, ts, "capped", hist(16), &Budget{Epsilon: 1, Delta: 1e-2})
	items := []map[string]any{
		{"strategy": tree.Strategy, "dataset": "tree", "epsilon": 0.5, "delta": 1e-4, "seed": 1, "mode": "estimate"},
		{"strategy": "bogus", "dataset": "small", "epsilon": 0.5, "delta": 1e-4},
		{"strategy": small.Strategy, "dataset": "small", "epsilon": 0.5, "delta": 1e-4, "seed": 2},
		{"strategy": small.Strategy, "dataset": "capped", "epsilon": 2, "delta": 1e-4},
		{"strategy": tree.Strategy, "dataset": "tree", "epsilon": 0.25, "delta": 1e-5, "seed": 3, "mode": "estimate", "trace": true},
		{"strategy": small.Strategy, "dataset": "small", "epsilon": 0.1, "delta": 1e-4, "seed": 4, "trace": true},
	}
	wantStatus := []int{200, 404, 200, 429, 200, 200}
	resp, body := post(t, ts, "/release", map[string]any{"parallelism": 2, "releases": items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Results []struct {
			Index     int             `json:"index"`
			Status    int             `json:"status"`
			Answers   json.RawMessage `json:"answers"`
			Ledger    json.RawMessage `json:"ledger"`
			Error     string          `json:"error"`
			Remaining *Budget         `json:"remaining"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(items) {
		t.Fatalf("%d results for %d entries", len(br.Results), len(items))
	}
	rebuilt := []byte(`{"results":[`)
	for i, res := range br.Results {
		if res.Index != i || res.Status != wantStatus[i] {
			t.Fatalf("result %d: index %d, status %d; want status %d", i, res.Index, res.Status, wantStatus[i])
		}
		if i > 0 {
			rebuilt = append(rebuilt, ',')
		}
		if res.Status != http.StatusOK {
			enc, err := json.Marshal(batchResult{Index: i, Status: res.Status, Error: res.Error, Remaining: res.Remaining})
			if err != nil {
				t.Fatal(err)
			}
			rebuilt = append(rebuilt, enc...)
			continue
		}
		var ans []float64
		if err := json.Unmarshal(res.Answers, &ans); err != nil {
			t.Fatal(err)
		}
		if re := appendFloats(nil, ans); !bytes.Equal(re, res.Answers) {
			t.Fatalf("entry %d: answers re-encode differently", i)
		}
		single := map[string]any{}
		for k, v := range items[i] {
			if k != "trace" {
				single[k] = v
			}
		}
		_, one := post(t, ts, "/answer", single)
		var sr struct {
			Answers json.RawMessage `json:"answers"`
		}
		if err := json.Unmarshal(one, &sr); err != nil {
			t.Fatalf("entry %d: /answer body %s: %v", i, one, err)
		}
		if !bytes.Equal(sr.Answers, res.Answers) {
			t.Fatalf("entry %d: batch answers differ from /answer's for the same seeded release", i)
		}
		if traced := items[i]["trace"] == true; traced != bytes.Contains(res.Ledger, []byte(`"name":"serialize"`)) {
			t.Fatalf("entry %d: traced %v, ledger %s", i, traced, res.Ledger)
		}
		rebuilt = fmt.Appendf(rebuilt, `{"index":%d,"status":200,"answers":%s,"ledger":%s}`, i, res.Answers, res.Ledger)
	}
	rebuilt = append(rebuilt, "],\"succeeded\":4,\"failed\":2}\n"...)
	if !bytes.Equal(rebuilt, body) {
		t.Fatalf("batch body differs from its entries rebuilt in order:\n got %.300s\nwant %.300s", body, rebuilt)
	}
}

func TestBatchReleaseValidation(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, _ := post(t, ts, "/release", map[string]any{"releases": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	big := make([]map[string]any, maxBatchReleases+1)
	for i := range big {
		big[i] = map[string]any{"strategy": "s1", "dataset": "d", "epsilon": 0.1, "delta": 1e-4}
	}
	resp, _ = post(t, ts, "/release", map[string]any{"releases": big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
}

// TestBatchReleaseBodyIsOneValue: every request body is decoded as one
// JSON value, so trailing data after it is refused rather than ignored,
// on /release and on the routes that share its decoder.
func TestBatchReleaseBodyIsOneValue(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	for path, body := range map[string]string{
		"/release": `{"releases":[{"strategy":"s1","dataset":"d","epsilon":0.1,"delta":1e-4}]} {"releases":[]}`,
		"/answer":  `{"strategy":"s1","epsilon":0.1,"delta":1e-4} {}`,
		"/design":  `{"workload":"allrange:4"} x`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: trailing-data body status %d, want 400", path, resp.StatusCode)
		}
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBatchReleaseBodyCap: /release reads its body under the same
// maxRequestBody cap as every other route, even when the oversized part
// follows a complete request object.
func TestBatchReleaseBodyCap(t *testing.T) {
	h := New().Handler()
	for _, path := range []string{"/release", "/answer"} {
		body := io.MultiReader(strings.NewReader(`{"releases":[]}`), spaces{})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: endless body status %d, want 413: %s", path, rec.Code, rec.Body)
		}
	}
}

// TestBatchReleaseFieldsDoNotCarryOver: batch state is pooled, so a
// request must never see a field an earlier one set. Estimate-mode and
// answers-mode batches on one strategy alternate, and each returns its
// own payload: 4 cell estimates or 10 workload answers.
func TestBatchReleaseFieldsDoNotCarryOver(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	d := designOn(t, ts, map[string]any{"workload": "allrange:4"})
	registerDataset(t, ts, "c", []float64{1, 2, 3, 4}, nil)
	for round := 0; round < 4; round++ {
		item := map[string]any{"strategy": d.Strategy, "dataset": "c", "epsilon": 0.1, "delta": 1e-4}
		want := 10
		if round%2 == 0 {
			item["mode"], want = "estimate", 4
		}
		resp, body := post(t, ts, "/release", map[string]any{"releases": []map[string]any{item, item}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		var br batchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Succeeded != 2 {
			t.Fatalf("round %d: %s", round, body)
		}
		for _, res := range br.Results {
			if len(res.Answers) != want {
				t.Fatalf("round %d: entry %d has %d values, want %d", round, res.Index, len(res.Answers), want)
			}
		}
	}
}

// TestBatchAggregatePayloadCap: each entry may be under the per-request
// answer cap, but the batch as a whole shares one payload budget —
// otherwise 256 near-cap entries would buffer gigabytes server-side.
func TestBatchAggregatePayloadCap(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	// allrange:1024 has 524,800 queries: one answers-mode entry fits the
	// 2^20 cap, two together exceed it.
	d := designOn(t, ts, map[string]any{"workload": "allrange:1024"})
	registerDataset(t, ts, "big", make([]float64, 1024), nil)

	entry := map[string]any{"strategy": d.Strategy, "dataset": "big", "epsilon": 0.1, "delta": 1e-4}
	resp, body := post(t, ts, "/release", map[string]any{
		"releases": []map[string]any{entry, entry},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("aggregate over-cap batch status %d: %s", resp.StatusCode, body)
	}
	// The refused batch must not have charged anything.
	resp2, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp2.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if _, charged := ledger["big"]; charged {
		t.Fatalf("refused batch charged the ledger: %+v", ledger)
	}
	// In estimate mode the same two entries are 2×1024 values and sail
	// through.
	est := map[string]any{"strategy": d.Strategy, "dataset": "big", "epsilon": 0.1, "delta": 1e-4, "mode": "estimate"}
	resp, body = post(t, ts, "/release", map[string]any{
		"releases": []map[string]any{est, est},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 2 {
		t.Fatalf("estimate batch outcome: %s", body)
	}
}
