package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

// randomSmallWorkload draws a random workload of a random class.
func randomSmallWorkload(r *rand.Rand) *workload.Workload {
	n := 4 + r.Intn(10)
	shape := domain.MustShape(n)
	switch r.Intn(5) {
	case 0:
		return workload.AllRange(shape)
	case 1:
		return workload.RandomRange(shape, 2+r.Intn(2*n), r)
	case 2:
		return workload.Prefix(n)
	case 3:
		return workload.Predicate(shape, 2+r.Intn(n), r)
	default:
		// Random dense workload with a few rows.
		m := linalg.New(2+r.Intn(n), n)
		for i := 0; i < m.Rows(); i++ {
			row := m.Row(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
		return workload.FromMatrix("random dense", shape, m)
	}
}

// TestPropertyDesignSandwich checks, on random workloads, the fundamental
// sandwich: bound ≤ eigen error ≤ identity error, plus the Thm 3 cap.
func TestPropertyDesignSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomSmallWorkload(r)
		res, err := Design(w, Options{})
		if err != nil {
			return false
		}
		eig, err := mm.Error(w, res.Strategy, testPrivacy)
		if err != nil {
			return false
		}
		id, err := mm.Error(w, linalg.Identity(w.Cells()), testPrivacy)
		if err != nil {
			return false
		}
		lb := mm.LowerBoundFromEigenvalues(res.Eigenvalues, w.NumQueries(), testPrivacy)
		if eig < lb*(1-1e-9) {
			return false
		}
		if eig > id*(1+1e-9) {
			return false
		}
		return eig/lb <= ApproxRatioBound(res.Eigenvalues)*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDesignSupportsWorkload: the designed strategy always answers
// the workload it was designed for (ErrorChecked never rejects).
func TestPropertyDesignSupportsWorkload(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomSmallWorkload(r)
		res, err := Design(w, Options{})
		if err != nil {
			return false
		}
		_, err = mm.ErrorChecked(w, res.Strategy, testPrivacy)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySensitivityNormalized: designed strategies use the whole
// sensitivity budget — max column norm 1 (scale cancels in error, but a
// normalized output is the contract).
func TestPropertySensitivityNormalized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomSmallWorkload(r)
		res, err := Design(w, Options{})
		if err != nil {
			return false
		}
		s := res.Strategy.MaxColNorm2()
		return s > 0.999 && s < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// scaleInvariant reports whether scaling the seed's random workload by
// k scales its designed strategy's error by k, to 1e-6 relative.
func scaleInvariant(seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	w := randomSmallWorkload(r)
	res, err := Design(w, Options{})
	if err != nil {
		return false
	}
	e1, err := mm.Error(w, res.Strategy, testPrivacy)
	if err != nil {
		return false
	}
	k := 1 + 5*r.Float64()
	e2, err := mm.Error(w.Scale(k), res.Strategy, testPrivacy)
	if err != nil {
		return false
	}
	return abs(e2-k*e1) < 1e-6*k*e1
}

// TestPropertyScaleInvariance: scaling the whole workload scales the error
// linearly and leaves the chosen strategy's relative quality unchanged.
func TestPropertyScaleInvariance(t *testing.T) {
	if err := quick.Check(scaleInvariant, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleInvariancePinnedSeeds pins seeds whose designed strategies
// have AᵀA eigenvalues just above the pseudo-inverse cutoff. Summing
// trace(WᵀW (AᵀA)⁺) over the entries of a formed pseudo-inverse cancelled
// there (terms near 1e11 down to a trace near 7) and broke scale
// invariance at about 1.3e-6 relative.
func TestScaleInvariancePinnedSeeds(t *testing.T) {
	for _, seed := range []int64{6263850036227742457, 3039845447521793759} {
		if !scaleInvariant(seed) {
			t.Errorf("seed %d: error does not scale linearly with the workload", seed)
		}
	}
}

// TestPropertyUnionAtLeastAsHard: adding queries can only increase the
// total (non-averaged) difficulty — check via the svdb bound on the union
// versus its parts, using the un-averaged form m·Error².
func TestPropertyUnionAtLeastAsHard(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		shape := domain.MustShape(n)
		w1 := workload.RandomRange(shape, 2+r.Intn(n), r)
		w2 := workload.Predicate(shape, 2+r.Intn(n), r)
		u := workload.Union("u", w1, w2)
		s1, err := mm.SVDB(w1)
		if err != nil {
			return false
		}
		su, err := mm.SVDB(u)
		if err != nil {
			return false
		}
		// svdb is (Σ√σ)²/n of WᵀW; the union's Gram dominates w1's in the
		// PSD order, so its svdb cannot be smaller.
		return su >= s1*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
