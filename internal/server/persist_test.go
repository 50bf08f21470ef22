package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/planstore"
	"adaptivemm/internal/wio"
)

// designOn posts a /design request to the given server and decodes the
// response, failing the test on any non-200.
func designSpecOn(t *testing.T, ts *httptest.Server, body string) designResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/design", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("/design %s: status %d: %s", body, resp.StatusCode, e["error"])
	}
	var dr designResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return dr
}

// TestRestartServesFromRehydratedCache is the acceptance check: a server
// restarted on the same store directory answers previously designed
// workloads from the rehydrated cache — cached:true, with zero generator
// builds in the new process.
func TestRestartServesFromRehydratedCache(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	first := designSpecOn(t, ts1, `{"workload":"allrange:8x16"}`)
	if first.Cached {
		t.Fatal("first design reported cached")
	}
	second := designSpecOn(t, ts1, `{"workload":"marginals:1:8x8"}`)
	if second.Planner.Generator != "sharded" {
		t.Fatalf("marginals:1:8x8 won %q, want sharded (the test should cover composite rehydration)", second.Planner.Generator)
	}
	ts1.Close()
	// Close flushes the write-behind queue: both plans must be durable
	// before the "restart".
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, spec := range []string{"allrange:8x16", "marginals:1:8x8"} {
		dr := designSpecOn(t, ts2, fmt.Sprintf(`{"workload":%q}`, spec))
		if !dr.Cached {
			t.Fatalf("%s after restart: cached = false, want true", spec)
		}
		if dr.ExpectedError <= 0 {
			t.Fatalf("%s after restart: expected error %g not restored", spec, dr.ExpectedError)
		}
	}
	if n := s2.pl.Builds(); n != 0 {
		t.Fatalf("restarted server ran %d generator builds, want 0", n)
	}

	// The rehydrated strategy must actually release: answer an inline
	// histogram through the warm plan.
	dr := designSpecOn(t, ts2, `{"workload":"allrange:8x16"}`)
	hist := make([]string, 128)
	for i := range hist {
		hist[i] = "3"
	}
	body := fmt.Sprintf(`{"strategy":%q,"dataset":"smoke","histogram":[%s],"epsilon":0.5,"delta":1e-4}`,
		dr.Strategy, strings.Join(hist, ","))
	resp, err := http.Post(ts2.URL+"/answer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/answer on rehydrated strategy: status %d", resp.StatusCode)
	}
}

// TestRestartRestoresCalibration: the per-generator design-throughput
// EWMA must survive a restart, not reset to the cold default.
func TestRestartRestoresCalibration(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// A real eigen design is expensive enough to feed the calibration.
	designSpecOn(t, ts1, `{"workload":"allrange:512"}`)
	ts1.Close()
	want := s1.pl.RateSnapshot()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := want["eigen"]; !ok {
		t.Fatalf("eigen build did not calibrate a per-generator rate: %v", want)
	}

	s2, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.pl.RateSnapshot()
	for gen, r := range want {
		if got[gen] != r {
			t.Fatalf("rate[%q] = %g after restart, want %g", gen, got[gen], r)
		}
	}
}

// TestCorruptStoreEntrySkippedOnStartup: a bit-flipped entry must not
// poison startup — the server comes up, logs the skip, and re-designs.
func TestCorruptStoreEntrySkippedOnStartup(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	designSpecOn(t, ts1, `{"workload":"prefix:64"}`)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries: %v, %v", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x20
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var skipped bool
	s2, err := Open(Options{StoreDir: dir, Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "skipping") {
			skipped = true
		}
	}})
	if err != nil {
		t.Fatalf("corrupt entry made startup fail: %v", err)
	}
	defer s2.Close()
	if !skipped {
		t.Fatal("corrupt entry was not reported as skipped")
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if dr := designSpecOn(t, ts2, `{"workload":"prefix:64"}`); dr.Cached {
		t.Fatal("design served from a corrupt entry")
	}
}

// TestFormatOneEntryReplanned: a plan entry written under store format
// 1 (before the Gram field was dropped) is skipped at startup with its
// reason logged; the next /design of its workload re-plans instead of
// serving it, and the re-plan is persisted in the current format.
func TestFormatOneEntryReplanned(t *testing.T) {
	dir := t.TempDir()
	const spec = `{"workload":"rangemarginals:2:4x8"}`
	s1, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	designSpecOn(t, ts1, spec)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries: %v, %v", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	// The format version is the one-byte varint after the 4-byte magic;
	// re-seal the checksum so only the version differs.
	blob[4] = 1
	sum := sha256.Sum256(blob[:len(blob)-sha256.Size])
	copy(blob[len(blob)-sha256.Size:], sum[:])
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var skipped []string
	s2, err := Open(Options{StoreDir: dir, Logf: func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "skipping") {
			skipped = append(skipped, msg)
		}
	}})
	if err != nil {
		t.Fatalf("format-1 entry made startup fail: %v", err)
	}
	want := fmt.Sprintf("format version 1, this build reads %d", planstore.FormatVersion)
	if len(skipped) != 1 || !strings.Contains(skipped[0], want) {
		t.Fatalf("skip log %q, want one line naming %q", skipped, want)
	}
	ts2 := httptest.NewServer(s2.Handler())
	if dr := designSpecOn(t, ts2, spec); dr.Cached {
		t.Fatal("design served from a format-1 entry")
	}
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if dr := designSpecOn(t, ts3, spec); !dr.Cached {
		t.Fatal("re-planned entry was not persisted in the current format")
	}
}

// TestPlansEndpoints covers GET /plans and DELETE /plans/{id}, including
// the no-store 404.
func TestPlansEndpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	designSpecOn(t, ts, `{"workload":"prefix:64"}`)
	designSpecOn(t, ts, `{"workload":"allrange:8x16"}`)
	// The queue is async; drain it deterministically through a second
	// server handle? No — Close would stop the worker. Poll /plans.
	var listing plansResponse
	for attempt := 0; attempt < 200; attempt++ {
		resp, err := http.Get(ts.URL + "/plans")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&listing)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(listing.Plans) == 2 {
			break
		}
	}
	if len(listing.Plans) != 2 {
		t.Fatalf("GET /plans listed %d entries, want 2", len(listing.Plans))
	}
	for _, m := range listing.Plans {
		if m.ID == "" || m.Key == "" || m.Generator == "" || m.SizeBytes == 0 {
			t.Fatalf("incomplete plan meta %+v", m)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/plans/"+listing.Plans[0].ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /plans/{id}: status %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", resp.StatusCode)
	}

	// Without a store both endpoints 404.
	bare := httptest.NewServer(New().Handler())
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /plans without a store: status %d, want 404", resp.StatusCode)
	}
}

// TestShippedPlanServedFromCache models the amdesign -save → serve flow:
// a plan designed offline (with amdesign's own analysis cap) is written
// into the store directory under the canonical spec key, and a server
// started on that directory serves /design of the same spec from cache
// without building anything.
func TestShippedPlanServedFromCache(t *testing.T) {
	dir := t.TempDir()
	spec := "allrange:8x16"

	// Offline design, amdesign-style: its own planner, its own hints.
	pl := planner.New(planner.Config{})
	w, err := wio.ParseWorkloadSpec(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	offlineHints := planner.Hints{Privacy: mm.Privacy{Epsilon: 0.5, Delta: 1e-4}, AnalysisCap: 2048}
	plan, err := pl.Plan(w, offlineHints)
	if err != nil {
		t.Fatal(err)
	}
	key := planstore.CanonicalKey(spec, 1, offlineHints.Fingerprint())
	blob, meta, err := planstore.EncodeEntry(key, plan, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, meta.ID+".plan"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dr := designSpecOn(t, ts, fmt.Sprintf(`{"workload":%q}`, spec))
	if !dr.Cached {
		t.Fatal("shipped plan not served from cache")
	}
	if n := srv.pl.Builds(); n != 0 {
		t.Fatalf("server ran %d builds despite the shipped plan, want 0", n)
	}
}

// TestDeletedPlanNotRehydrated: DELETE withdraws durability — after a
// restart the spec re-designs instead of serving cached.
func TestDeletedPlanNotRehydrated(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	designSpecOn(t, ts1, `{"workload":"prefix:64"}`)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	var listing plansResponse
	resp, err := http.Get(ts2.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Plans) != 1 {
		t.Fatalf("listed %d plans, want 1", len(listing.Plans))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/plans/"+listing.Plans[0].ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Options{StoreDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if dr := designSpecOn(t, ts3, `{"workload":"prefix:64"}`); dr.Cached {
		t.Fatal("deleted plan was rehydrated")
	}
}

// Regression for the List/quota-GC race: an id listed by GET /plans a
// moment ago whose entry the quota then evicted must come back as a 404
// naming the eviction — never a 500.
func TestPlanEvictedBetweenListAndGet(t *testing.T) {
	s, err := Open(Options{StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	designSpecOn(t, ts, `{"workload":"prefix:64"}`)
	// Flush the write-behind queue so the entry is durably listed.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	metas, err := s.store.List()
	if err != nil || len(metas) != 1 {
		t.Fatalf("List = %d entries (%v), want 1", len(metas), err)
	}
	id := metas[0].ID

	fetch := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	if code, _ := fetch("/plans/" + id); code != http.StatusOK {
		t.Fatalf("GET /plans/{id} before eviction: status %d", code)
	}

	// The "GC lands between List and Get" moment: evict everything.
	s.store.SetQuota(1, t.Logf)

	code, body := fetch("/plans/" + id)
	if code != http.StatusNotFound {
		t.Fatalf("GET /plans/{id} after eviction: status %d (%s), want 404", code, body)
	}
	if !strings.Contains(body, "evicted") {
		t.Fatalf("eviction 404 carries no hint: %s", body)
	}
	// A never-existing id is a plain 404, no eviction claim.
	code, body = fetch("/plans/ffffffffffffffffffffffff")
	if code != http.StatusNotFound || strings.Contains(body, "evicted") {
		t.Fatalf("unknown id: status %d body %s, want plain 404", code, body)
	}
}
