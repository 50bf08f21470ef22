package planstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivemm/internal/planner"
	"adaptivemm/internal/workload"
)

func quotaPlan(t *testing.T) *planner.Plan {
	t.Helper()
	pl := planner.New(planner.Config{})
	plan, err := pl.Plan(workload.Prefix(16), planner.Hints{Privacy: testPrivacy})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func planExists(t *testing.T, s *Store, id string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(s.Dir(), id+planExt))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// TestQuotaEvictsLeastRecentlyServed pins the planstore GC: past the
// byte budget, Put evicts least-recently-served entries (Touch order,
// falling back to mtime), each eviction is logged, and serving an entry
// protects it.
func TestQuotaEvictsLeastRecentlyServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := quotaPlan(t)

	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	put := func(name string) Meta {
		meta, err := s.Put(CanonicalKey("quota:"+name, 1, "fp"), plan)
		if err != nil {
			t.Fatal(err)
		}
		// Entry timestamps must order the puts even on coarse clocks.
		time.Sleep(2 * time.Millisecond)
		return meta
	}

	a := put("a")
	// Two entries fit the quota, a third does not.
	s.SetQuota(2*a.SizeBytes+a.SizeBytes/2, logf)
	b := put("b")
	if !planExists(t, s, a.ID) || !planExists(t, s, b.ID) {
		t.Fatal("two entries fit the quota; nothing should be evicted yet")
	}
	if len(logged) != 0 {
		t.Fatalf("no evictions expected yet, logged %q", logged)
	}

	c := put("c")
	if planExists(t, s, a.ID) {
		t.Fatal("a is least-recently-served and should have been evicted")
	}
	if !planExists(t, s, b.ID) || !planExists(t, s, c.ID) {
		t.Fatal("b and c are within the quota and must survive")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "quota eviction") || !strings.Contains(logged[0], a.ID) {
		t.Fatalf("eviction of %s must be logged, got %q", a.ID, logged)
	}

	// Serving b moves it to the recently-served end: the next Put evicts
	// c, not b.
	s.Touch(b.ID)
	time.Sleep(2 * time.Millisecond)
	d := put("d")
	if planExists(t, s, c.ID) {
		t.Fatal("c is least-recently-served after b was touched; it should be evicted")
	}
	if !planExists(t, s, b.ID) || !planExists(t, s, d.ID) {
		t.Fatal("touched b and fresh d must survive")
	}

	// SetQuota enforces immediately: a budget below any single entry
	// clears the store.
	s.SetQuota(1, logf)
	ids, err := s.ids()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("1-byte quota must clear the store, still have %v", ids)
	}

	// Quota 0 disables enforcement.
	s.SetQuota(0, logf)
	e := put("e")
	f := put("f")
	g := put("g")
	for _, m := range []Meta{e, f, g} {
		if !planExists(t, s, m.ID) {
			t.Fatalf("quota 0 is unlimited; %s must not be evicted", m.ID)
		}
	}
}

// TestQuotaFreshProcessUsesMtime pins the cold-start eviction order: a
// store opened by a new process (empty served map) still evicts
// oldest-first by file mtime.
func TestQuotaFreshProcessUsesMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := quotaPlan(t)
	var metas []Meta
	for _, name := range []string{"a", "b", "c"} {
		meta, err := s.Put(CanonicalKey("mtime:"+name, 1, "fp"), plan)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, meta)
		time.Sleep(5 * time.Millisecond)
	}

	// A second Store over the same directory has no served history.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetQuota(metas[0].SizeBytes*2+metas[0].SizeBytes/2, nil)
	if planExists(t, s2, metas[0].ID) {
		t.Fatal("oldest entry by mtime should be evicted on a fresh process")
	}
	if !planExists(t, s2, metas[1].ID) || !planExists(t, s2, metas[2].ID) {
		t.Fatal("newer entries must survive")
	}
}
