// Package accountant enforces per-dataset privacy budgets for a release
// server under basic sequential composition. It replaces a
// charge-after-release ledger — which can only record overspending, never
// prevent it — with atomic check-reserve-commit semantics:
//
//	res, err := acct.Reserve("adult", accountant.Budget{Epsilon: 0.5, Delta: 1e-4})
//	if err != nil { /* over budget: refuse the release */ }
//	answers, err := mechanism.Release(...)
//	if err != nil { res.Refund() } else { res.Commit() }
//
// Reserve atomically checks the dataset's cap against committed spend plus
// all in-flight reservations and claims the requested budget, so
// concurrent releases can never jointly exceed a cap no matter how they
// interleave: the budget is spoken for before any noise is drawn. Commit
// converts the reservation into committed spend; Refund returns it when
// the release fails, since a release that produced no output consumed no
// privacy.
//
// Datasets without a cap are unlimited but still tracked, preserving the
// pure-bookkeeping behaviour for ad-hoc datasets.
package accountant

import (
	"fmt"
	"sort"
	"sync"
)

// slackRel absorbs float round-off when summing many small charges
// against a cap (e.g. ten reservations of 0.1 against a cap of 1.0 must
// all fit). It is relative to the cap: summation error scales with the
// cap's magnitude, and an absolute tolerance would dwarf realistic δ caps
// (1e-10 and below), silently admitting many over-cap releases.
const slackRel = 1e-9

// Budget is a privacy budget or spend under (ε,δ)-differential privacy.
type Budget struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// add returns b + o.
func (b Budget) add(o Budget) Budget {
	return Budget{Epsilon: b.Epsilon + o.Epsilon, Delta: b.Delta + o.Delta}
}

// sub returns b − o, clamped at zero componentwise.
func (b Budget) sub(o Budget) Budget {
	out := Budget{Epsilon: b.Epsilon - o.Epsilon, Delta: b.Delta - o.Delta}
	if out.Epsilon < 0 {
		out.Epsilon = 0
	}
	if out.Delta < 0 {
		out.Delta = 0
	}
	return out
}

// OverBudgetError reports a refused reservation together with the budget
// still available, so callers can surface "remaining" to the analyst.
type OverBudgetError struct {
	Dataset   string
	Requested Budget
	Remaining Budget
}

func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("accountant: dataset %q over budget: requested (ε=%g, δ=%g), remaining (ε=%g, δ=%g)",
		e.Dataset, e.Requested.Epsilon, e.Requested.Delta, e.Remaining.Epsilon, e.Remaining.Delta)
}

type state struct {
	cap      Budget // zero components are unlimited
	capped   bool
	spent    Budget // committed releases
	reserved Budget // in-flight releases
}

// Accountant tracks privacy budgets for any number of datasets.
type Accountant struct {
	mu       sync.Mutex
	datasets map[string]*state
}

// New returns an empty accountant.
func New() *Accountant {
	return &Accountant{datasets: map[string]*state{}}
}

func (a *Accountant) get(dataset string) *state {
	st, ok := a.datasets[dataset]
	if !ok {
		st = &state{}
		a.datasets[dataset] = st
	}
	return st
}

// SetCap installs a budget cap for a dataset. A zero component of the cap
// leaves that parameter unlimited; negative components are rejected (they
// would silently read as unlimited — the dangerous typo for a cap).
// Existing spend is kept: lowering a cap below what is already spent
// refuses all further reservations.
func (a *Accountant) SetCap(dataset string, cap Budget) error {
	if cap.Epsilon < 0 || cap.Delta < 0 {
		return fmt.Errorf("accountant: negative cap (ε=%g, δ=%g)", cap.Epsilon, cap.Delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.get(dataset)
	st.cap = cap
	st.capped = true
	return nil
}

// Cap returns the dataset's cap and whether one is set.
func (a *Accountant) Cap(dataset string) (Budget, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.datasets[dataset]
	if !ok || !st.capped {
		return Budget{}, false
	}
	return st.cap, true
}

// Spent returns the committed spend for a dataset.
func (a *Accountant) Spent(dataset string) Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.datasets[dataset]
	if !ok {
		return Budget{}
	}
	return st.spent
}

// Remaining returns cap − spent − reserved for a capped dataset; the
// second result is false for uncapped (unlimited) datasets. Unlimited
// components report zero remaining with ok still true when the other
// component is capped — check the cap to interpret zeros.
func (a *Accountant) Remaining(dataset string) (Budget, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.datasets[dataset]
	if !ok || !st.capped {
		return Budget{}, false
	}
	return st.cap.sub(st.spent.add(st.reserved)), true
}

// Len returns the number of tracked datasets. Tracking state is never
// evicted, so callers use Len to bound growth before admitting a release
// under a brand-new name.
func (a *Accountant) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.datasets)
}

// Tracked reports whether the dataset already has accountant state.
func (a *Accountant) Tracked(dataset string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.datasets[dataset]
	return ok
}

// Datasets returns the names of all tracked datasets, sorted.
func (a *Accountant) Datasets() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.datasets))
	for name := range a.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Reservation is an in-flight budget claim, a value the caller holds (so
// a release allocates none). Exactly one of Commit or Refund must be
// called, through the variable Reserve's result was stored in: both are
// idempotent there, and later calls are no-ops. A copy keeps its own
// settled flag, so settle one variable only. The zero Reservation (the
// one a failed Reserve returns) settles nothing.
type Reservation struct {
	a       *Accountant
	dataset string
	amount  Budget
	settled bool
}

// Reserve atomically claims budget for one release against the dataset's
// cap. It fails with *OverBudgetError when committed spend plus in-flight
// reservations plus the request would exceed a capped component.
func (a *Accountant) Reserve(dataset string, p Budget) (Reservation, error) {
	if p.Epsilon < 0 || p.Delta < 0 {
		return Reservation{}, fmt.Errorf("accountant: negative budget (ε=%g, δ=%g)", p.Epsilon, p.Delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.get(dataset)
	if st.capped {
		claimed := st.spent.add(st.reserved)
		overEps := st.cap.Epsilon > 0 && claimed.Epsilon+p.Epsilon > st.cap.Epsilon*(1+slackRel)
		overDelta := st.cap.Delta > 0 && claimed.Delta+p.Delta > st.cap.Delta*(1+slackRel)
		if overEps || overDelta {
			return Reservation{}, &OverBudgetError{
				Dataset:   dataset,
				Requested: p,
				Remaining: st.cap.sub(claimed),
			}
		}
	}
	st.reserved = st.reserved.add(p)
	return Reservation{a: a, dataset: dataset, amount: p}, nil
}

// Commit converts the reservation into committed spend.
func (r *Reservation) Commit() {
	r.settle(true)
}

// Refund releases the reservation without charging it; use when the
// release failed and no private output was produced.
func (r *Reservation) Refund() {
	r.settle(false)
}

func (r *Reservation) settle(commit bool) {
	if r.a == nil {
		return
	}
	r.a.mu.Lock()
	defer r.a.mu.Unlock()
	if r.settled {
		return
	}
	r.settled = true
	st := r.a.get(r.dataset)
	st.reserved = st.reserved.sub(r.amount)
	if commit {
		st.spent = st.spent.add(r.amount)
	}
}
