package accountant

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestReserveCommitRefund(t *testing.T) {
	a := New()
	a.SetCap("d", Budget{Epsilon: 1, Delta: 1e-3})

	res, err := a.Reserve("d", Budget{Epsilon: 0.4, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Spent("d"); got.Epsilon != 0 {
		t.Fatalf("spend before commit: %+v", got)
	}
	// The reservation already counts against the cap.
	if rem, ok := a.Remaining("d"); !ok || math.Abs(rem.Epsilon-0.6) > 1e-12 {
		t.Fatalf("remaining with reservation in flight: %+v ok=%v", rem, ok)
	}
	res.Commit()
	if got := a.Spent("d"); math.Abs(got.Epsilon-0.4) > 1e-12 || math.Abs(got.Delta-1e-4) > 1e-18 {
		t.Fatalf("spend after commit: %+v", got)
	}
	res.Commit() // idempotent
	res.Refund() // no-op after settle
	if got := a.Spent("d"); math.Abs(got.Epsilon-0.4) > 1e-12 {
		t.Fatalf("double settle changed spend: %+v", got)
	}

	res2, err := a.Reserve("d", Budget{Epsilon: 0.5, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	res2.Refund()
	if got := a.Spent("d"); math.Abs(got.Epsilon-0.4) > 1e-12 {
		t.Fatalf("refund charged the ledger: %+v", got)
	}
	if rem, ok := a.Remaining("d"); !ok || math.Abs(rem.Epsilon-0.6) > 1e-12 {
		t.Fatalf("remaining after refund: %+v", rem)
	}
}

func TestOverBudgetReporting(t *testing.T) {
	a := New()
	a.SetCap("d", Budget{Epsilon: 1, Delta: 1e-3})
	res, err := a.Reserve("d", Budget{Epsilon: 0.7, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()

	_, err = a.Reserve("d", Budget{Epsilon: 0.5, Delta: 1e-4})
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("want OverBudgetError, got %v", err)
	}
	if over.Dataset != "d" || math.Abs(over.Remaining.Epsilon-0.3) > 1e-9 {
		t.Fatalf("over-budget detail: %+v", over)
	}
	// The refused reservation must not have claimed anything.
	ok, err := a.Reserve("d", Budget{Epsilon: 0.3, Delta: 1e-4})
	if err != nil {
		t.Fatalf("in-cap reservation after refusal: %v", err)
	}
	ok.Commit()
}

func TestUncappedDatasetIsTrackedButUnlimited(t *testing.T) {
	a := New()
	for i := 0; i < 50; i++ {
		res, err := a.Reserve("free", Budget{Epsilon: 10, Delta: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		res.Commit()
	}
	if got := a.Spent("free"); math.Abs(got.Epsilon-500) > 1e-9 {
		t.Fatalf("spend %+v", got)
	}
	if _, ok := a.Remaining("free"); ok {
		t.Fatal("uncapped dataset reported a remaining budget")
	}
}

func TestPartialCapOnlyEpsilon(t *testing.T) {
	a := New()
	a.SetCap("d", Budget{Epsilon: 1}) // δ unlimited
	res, err := a.Reserve("d", Budget{Epsilon: 0.9, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	if _, err := a.Reserve("d", Budget{Epsilon: 0.2, Delta: 0.5}); err == nil {
		t.Fatal("epsilon cap not enforced")
	}
}

// TestConcurrentReservationsNeverOverspend is the core guarantee: many
// goroutines racing to release against one capped dataset, with some
// refunding, must end with committed spend within the cap and exactly the
// number of successes the cap allows. Run under -race in CI.
func TestConcurrentReservationsNeverOverspend(t *testing.T) {
	a := New()
	const cap = 1.0
	const per = 0.1
	a.SetCap("shared", Budget{Epsilon: cap, Delta: 1e-2})

	const workers = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := a.Reserve("shared", Budget{Epsilon: per, Delta: 1e-4})
			if err != nil {
				var over *OverBudgetError
				if !errors.As(err, &over) {
					t.Errorf("unexpected error: %v", err)
				}
				return
			}
			// Every 4th worker simulates a failed release and refunds,
			// making room for a later worker.
			if g%4 == 3 {
				res.Refund()
				return
			}
			res.Commit()
			mu.Lock()
			committed++
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	spent := a.Spent("shared")
	if spent.Epsilon > cap+1e-6 {
		t.Fatalf("overspent: %+v against cap %g", spent, cap)
	}
	if got := float64(committed) * per; math.Abs(got-spent.Epsilon) > 1e-9 {
		t.Fatalf("committed count %d inconsistent with spend %+v", committed, spent)
	}
	// With refunds freeing budget, later reservations can still land, but
	// never more than cap/per commits in total.
	if maxCommits := int(math.Round(cap / per)); committed > maxCommits {
		t.Fatalf("%d commits exceed the %g/%g cap", committed, cap, per)
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	a := New()
	if _, err := a.Reserve("d", Budget{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	// A negative cap component would silently read as unlimited.
	if err := a.SetCap("d", Budget{Epsilon: -1}); err == nil {
		t.Fatal("negative cap accepted")
	}
	if _, capped := a.Cap("d"); capped {
		t.Fatal("rejected cap was installed")
	}
}

// TestTinyDeltaCapEnforced: the round-off slack is relative to the cap.
// An absolute slack of 1e-9 would dwarf a δ cap of 1e-10 and admit ~11
// over-cap releases before refusing anything.
func TestTinyDeltaCapEnforced(t *testing.T) {
	a := New()
	a.SetCap("d", Budget{Delta: 1e-10})
	res, err := a.Reserve("d", Budget{Delta: 1e-10})
	if err != nil {
		t.Fatalf("exact-cap reservation refused: %v", err)
	}
	res.Commit()
	if _, err := a.Reserve("d", Budget{Delta: 1e-10}); err == nil {
		t.Fatal("second 1e-10 reservation admitted past a 1e-10 delta cap")
	}
}

// TestLenAndTracked covers the growth-bounding probes.
func TestLenAndTracked(t *testing.T) {
	a := New()
	if a.Len() != 0 || a.Tracked("d") {
		t.Fatalf("empty accountant: len=%d tracked=%v", a.Len(), a.Tracked("d"))
	}
	res, err := a.Reserve("d", Budget{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res.Refund()
	if a.Len() != 1 || !a.Tracked("d") {
		t.Fatalf("after reserve: len=%d tracked=%v", a.Len(), a.Tracked("d"))
	}
}

// TestRefusedReservationSettlesNothing: the zero Reservation a refused
// Reserve returns can be refunded or committed without effect, so a
// deferred Refund placed before the error check is safe.
func TestRefusedReservationSettlesNothing(t *testing.T) {
	a := New()
	a.SetCap("d", Budget{Epsilon: 1})
	res, err := a.Reserve("d", Budget{Epsilon: 2})
	if err == nil {
		t.Fatal("over-cap reservation admitted")
	}
	res.Commit()
	res.Refund()
	if got := a.Spent("d"); got.Epsilon != 0 {
		t.Fatalf("refused reservation charged the ledger: %+v", got)
	}
	if rem, _ := a.Remaining("d"); rem.Epsilon != 1 {
		t.Fatalf("refused reservation changed the remaining budget: %+v", rem)
	}
}
