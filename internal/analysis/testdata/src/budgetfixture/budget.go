// Fixture for budgetsettle: reservations leaked on a path, discarded
// outright, or settled correctly. Imports the real accountant, so this
// is literally the leaked-Reserve bug class failing the lint build.

package budgetfixture

import (
	"errors"

	"adaptivemm/internal/accountant"
)

var errBad = errors.New("bad")

func work() error { return nil }

// leakOnReturn forgets the reservation on an unrelated error return.
func leakOnReturn(a *accountant.Accountant) error {
	res, err := a.Reserve("d", accountant.Budget{Epsilon: 1})
	if err != nil {
		return err // error path: res is nil, propagating err is fine
	}
	if work() != nil {
		return errBad // want `leaks on this return`
	}
	res.Commit()
	return nil
}

// leakAtEnd never settles on any path: flagged at the acquisition.
func leakAtEnd(a *accountant.Accountant) {
	res, _ := a.Reserve("d", accountant.Budget{Epsilon: 1}) // want `unsettled at function end`
	_ = res
}

// discarded can never be settled at all.
func discarded(a *accountant.Accountant) {
	_, _ = a.Reserve("d", accountant.Budget{Epsilon: 1}) // want `result discarded`
}

// leakInLoop re-reserves every iteration without settling the previous
// reservation.
func leakInLoop(a *accountant.Accountant, names []string) {
	for _, n := range names {
		res, err := a.Reserve(n, accountant.Budget{Epsilon: 1}) // want `unsettled at end of loop body`
		if err != nil {
			continue
		}
		_ = res
	}
}

// deferredRefund is the preferred spelling: Refund after Commit is a
// no-op and the defer covers panics.
func deferredRefund(a *accountant.Accountant) error {
	res, err := a.Reserve("d", accountant.Budget{Epsilon: 1})
	if err != nil {
		return err
	}
	defer res.Refund()
	if err := work(); err != nil {
		return err
	}
	res.Commit()
	return nil
}

// branchSettle settles explicitly on every branch.
func branchSettle(a *accountant.Accountant, commit bool) error {
	res, err := a.Reserve("d", accountant.Budget{Epsilon: 1})
	if err != nil {
		return err
	}
	if commit {
		res.Commit()
	} else {
		res.Refund()
	}
	return nil
}

// transfer hands the settle obligation to the caller with the value.
func transfer(a *accountant.Accountant) (accountant.Reservation, error) {
	res, err := a.Reserve("d", accountant.Budget{Epsilon: 1})
	if err != nil {
		return accountant.Reservation{}, err
	}
	return res, nil
}
