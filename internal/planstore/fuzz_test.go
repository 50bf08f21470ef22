package planstore

import (
	"crypto/sha256"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/workload"
)

// FuzzPlanstoreEntry feeds the store's entry decoder hostile blobs: any
// input must be cleanly rejected or decode into a plan that re-encodes —
// a decode panic would mean one corrupt entry on disk can crash server
// warm-start.
func FuzzPlanstoreEntry(f *testing.F) {
	pl := planner.New(planner.Config{})
	plan, err := pl.Plan(workload.Prefix(16), planner.Hints{Privacy: mm.Privacy{Epsilon: 0.5, Delta: 1e-4}})
	if err != nil {
		f.Fatal(err)
	}
	blob, _, err := EncodeEntry("fuzz-seed", plan, time.Unix(1700000000, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(planMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(b []byte) {
			plan, meta, err := DecodeEntry(b)
			if err != nil {
				return
			}
			if plan == nil {
				t.Fatal("nil plan with nil error")
			}
			if meta.Key == "" {
				return // EncodeEntry refuses empty keys by contract
			}
			re, _, err := EncodeEntry(meta.Key, plan, meta.SavedAt)
			if err != nil {
				t.Fatalf("re-encode of decoded plan failed: %v", err)
			}
			if _, _, err := DecodeEntry(re); err != nil {
				t.Fatalf("round-trip decode failed: %v", err)
			}
		}
		// As provided: hostile blobs are rejected at the magic or checksum.
		check(data)
		// Re-framed as an envelope body with a valid checksum, so mutations
		// exercise the header and plan parsers behind the integrity check.
		body := append([]byte(planMagic), data...)
		sum := sha256.Sum256(body)
		check(append(body, sum[:]...))
	})
}

// TestCheckedInSeedDecodes: the checked-in corpus entry seed-entry is an
// envelope in the current format, so the fuzzer's mutations of it start
// past the version gate, in the plan parser. A format bump must
// regenerate it from EncodeEntry.
func TestCheckedInSeedDecodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzPlanstoreEntry/seed-entry")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed-entry is not a one-value []byte corpus file")
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeEntry([]byte(blob)); err != nil {
		t.Fatalf("seed-entry does not decode: %v", err)
	}
}
