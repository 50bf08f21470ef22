package planstore

import (
	"errors"
	"os"
	"testing"
)

func TestStatReadsMetaWithoutPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Put(CanonicalKey("raw:stat", 1, "fp"), quotaPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Stat(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != meta.ID || st.Key != meta.Key || st.Generator != meta.Generator {
		t.Fatalf("Stat = %+v, want %+v", st, meta)
	}
	if _, err := s.Stat("ffffffffffffffffffffffff"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing entry: err = %v, want ErrNotExist", err)
	}
	if _, err := s.Stat("not-hex"); err == nil {
		t.Fatal("Stat accepted an invalid id")
	}
}

// The store remembers what its quota evicted, so a reader racing the GC
// can distinguish "evicted just now" from "never existed" — the
// List-then-Load race the HTTP layer turns into a 404 with a hint.
func TestEvictedTracking(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := quotaPlan(t)
	meta, err := s.Put(CanonicalKey("raw:evict", 1, "fp"), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Evicted(meta.ID); ok {
		t.Fatal("live entry reported evicted")
	}
	// A 1-byte quota evicts everything.
	s.SetQuota(1, nil)
	if planExists(t, s, meta.ID) {
		t.Fatal("entry survived a 1-byte quota")
	}
	if _, ok := s.Evicted(meta.ID); !ok {
		t.Fatal("evicted entry not remembered")
	}
	if _, ok := s.Evicted("ffffffffffffffffffffffff"); ok {
		t.Fatal("never-existing id reported evicted")
	}
	// Re-persisting the same key clears the eviction record.
	s.SetQuota(0, nil)
	if _, err := s.Put(CanonicalKey("raw:evict", 1, "fp"), plan); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Evicted(meta.ID); ok {
		t.Fatal("re-persisted entry still reported evicted")
	}
}
