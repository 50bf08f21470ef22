package planner

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

var testPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

func winner(t *testing.T, p *Planner, w *workload.Workload, h Hints) string {
	t.Helper()
	decisions, err := p.Explain(w, h)
	if err != nil {
		t.Fatalf("Explain(%s): %v", w.Name(), err)
	}
	for _, d := range decisions {
		if d.Selected {
			return d.Generator
		}
	}
	t.Fatalf("Explain(%s): no generator selected in %+v", w.Name(), decisions)
	return ""
}

// The admission table: which generator wins for the canonical workload
// shapes under tight, default and loose design budgets. This pins the
// escalation ladder that used to be hard-coded in the server.
func TestAdmissionTable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prefix1024 := workload.Prefix(1024)
	allrange2D := workload.AllRange(domain.MustShape(64, 64))
	marginals := workload.Marginals(domain.MustShape(8, 8, 4), 2)
	randomDense := workload.Predicate(domain.MustShape(64), 12, r)

	const (
		tight = 1e6
		loose = 1e12
		huge  = 1e13
	)
	cases := []struct {
		name string
		w    *workload.Workload
		h    Hints
		want string
	}{
		// Prefix(1024): dense algebra is over the default budget, loose
		// hints buy the exact design back.
		{"prefix1024/tight", prefix1024, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"prefix1024/default", prefix1024, Hints{}, "hierarchical"},
		{"prefix1024/loose", prefix1024, Hints{MaxDesignCost: loose}, "eigen"},

		// AllRange(64,64): product form past the structured threshold —
		// the factored principal-vector design is the scalable choice;
		// only an extreme budget admits the exact factored design, and a
		// tight one falls to the tree.
		{"allrange64x64/tight", allrange2D, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"allrange64x64/default", allrange2D, Hints{}, "principal-vectors"},
		{"allrange64x64/loose", allrange2D, Hints{MaxDesignCost: loose}, "principal-vectors"},
		{"allrange64x64/huge", allrange2D, Hints{MaxDesignCost: huge}, "eigen"},

		// Marginal sets: the closed-form optimal designer is nearly free,
		// so it wins even under a tight budget.
		{"marginals/tight", marginals, Hints{MaxDesignCost: tight}, "marginals"},
		{"marginals/default", marginals, Hints{}, "marginals"},
		{"marginals/loose", marginals, Hints{MaxDesignCost: loose}, "marginals"},

		// Random dense rows on a small domain: exact eigen under default
		// and loose budgets, tree under tight.
		{"randomdense/tight", randomDense, Hints{MaxDesignCost: tight}, "hierarchical"},
		{"randomdense/default", randomDense, Hints{}, "eigen"},
		{"randomdense/loose", randomDense, Hints{MaxDesignCost: loose}, "eigen"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := New(Config{})
			if got := winner(t, p, c.w, c.h); got != c.want {
				t.Fatalf("winner = %q, want %q", got, c.want)
			}
		})
	}
}

// MaxDesignTime hints convert to cost budgets at DefaultUnitsPerSecond:
// an hour admits the exact design on 1024 cells, a millisecond does not.
func TestDesignTimeHintConversion(t *testing.T) {
	w := workload.Prefix(1024)
	if got := winner(t, New(Config{}), w, Hints{MaxDesignTime: time.Hour}); got != "eigen" {
		t.Fatalf("loose time hint: winner = %q, want eigen", got)
	}
	if got := winner(t, New(Config{}), w, Hints{MaxDesignTime: time.Millisecond}); got != "hierarchical" {
		t.Fatalf("tight time hint: winner = %q, want hierarchical", got)
	}
}

// A tighter Size hint forbids dense algebra even when the budget allows.
func TestSizeClassHintRestricts(t *testing.T) {
	w := workload.Prefix(256)
	if got := winner(t, New(Config{}), w, Hints{}); got != "eigen" {
		t.Fatalf("default: winner = %q, want eigen", got)
	}
	if got := winner(t, New(Config{}), w, Hints{Size: SizeLarge}); got != "hierarchical" {
		t.Fatalf("SizeLarge hint: winner = %q, want hierarchical", got)
	}
}

// Forcing a generator bypasses the budget but not hard admission rules.
func TestForcedGenerator(t *testing.T) {
	p := New(Config{})
	w := workload.AllRange(domain.MustShape(48, 48))
	decisions, err := p.Explain(w, Hints{Generator: "eigen-separation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || !decisions[0].Selected || decisions[0].Generator != "eigen-separation" {
		t.Fatalf("forced separation decisions = %+v", decisions)
	}
	if _, err := p.Explain(w, Hints{Generator: "marginals"}); err == nil {
		t.Fatal("forcing marginals on a range workload did not error")
	}
	if _, err := p.Explain(w, Hints{Generator: "no-such-generator"}); err == nil {
		t.Fatal("unknown generator did not error")
	}
}

// failingGen admits with the best score and then fails its build: the
// planner must fall through the admission order to the next candidate and
// record the failure.
type failingGen struct{}

func (failingGen) Name() string { return "always-fails" }
func (failingGen) Propose(w *workload.Workload, h Hints, forced bool) (*Proposal, string) {
	return &Proposal{Cost: 1, Score: -1, Note: "admits everything, builds nothing",
		Build: func() (Built, error) { return Built{}, errors.New("synthetic build failure") },
	}, ""
}

func TestBuildFallbackOrder(t *testing.T) {
	p := New(Config{})
	p.Register(failingGen{})
	w := workload.Prefix(64)
	plan, err := p.Plan(w, Hints{Privacy: testPrivacy})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generator != "eigen" {
		t.Fatalf("fallback winner = %q, want eigen", plan.Generator)
	}
	var sawFailure bool
	for _, d := range plan.Decisions {
		if d.Generator == "always-fails" {
			sawFailure = true
			if d.Admitted || d.Selected {
				t.Fatalf("failed generator still marked admitted/selected: %+v", d)
			}
		}
	}
	if !sawFailure {
		t.Fatal("failed generator missing from decisions")
	}
}

// Property: whatever the planner picks, the error it reports must match
// the core error analysis of the chosen strategy to 1e-8 (relative).
func TestPlanErrorMatchesCoreAnalysis(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	workloads := []*workload.Workload{
		workload.Prefix(64),
		workload.AllRange(domain.MustShape(8, 16)),
		workload.Marginals(domain.MustShape(4, 4, 2), 2),
		workload.Predicate(domain.MustShape(32), 20, r),
	}
	p := New(Config{})
	for _, w := range workloads {
		plan, err := p.Plan(w, Hints{Privacy: testPrivacy})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		reported, err := plan.ExpectedError(testPrivacy)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		independent, err := mm.Error(w, plan.Op, testPrivacy)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if reported <= 0 {
			t.Fatalf("%s: reported error %g not positive", w.Name(), reported)
		}
		if math.Abs(reported-independent) > 1e-8*independent {
			t.Fatalf("%s (%s): reported %g vs core analysis %g", w.Name(), plan.Generator, reported, independent)
		}
		// The marginal generator must also meet its optimality claim.
		if plan.Generator == "marginals" {
			lb := plan.LowerBound(testPrivacy)
			if lb <= 0 || reported > lb*(1+1e-6) {
				t.Fatalf("%s: closed-form error %g above lower bound %g", w.Name(), reported, lb)
			}
		}
	}
}

// The hint fingerprint — the suffix of the server's and the plan store's
// cache keys — covers every hint that changes the plan, MaxShards
// included, and none that does not.
func TestFingerprint(t *testing.T) {
	base := Hints{Privacy: testPrivacy}
	if got := base.Fingerprint(); got != (Hints{}).Fingerprint() {
		t.Fatalf("privacy changed the fingerprint: %q", got)
	}
	if (Hints{AnalysisCap: 2048}).Fingerprint() != (Hints{}).Fingerprint() {
		t.Fatal("the analysis cap changed the fingerprint")
	}
	for name, h := range map[string]Hints{
		"cost":      {MaxDesignCost: 1e6},
		"time":      {MaxDesignTime: time.Millisecond},
		"size":      {Size: SizeLarge},
		"generator": {Generator: "hierarchical"},
		"group":     {GroupSize: 4},
		"k":         {PrincipalK: 8},
		"branch":    {Branch: 4},
		"order":     {FirstOrder: true},
		"shards":    {MaxShards: -1},
	} {
		if h.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s hint does not change the fingerprint %q", name, base.Fingerprint())
		}
	}
	// MaxShards changes the plan as well as the key: the same marginal set
	// is sharded by default and planned whole with sharding disabled.
	p := New(Config{})
	w := workload.Marginals(domain.MustShape(16, 16), 1)
	if got := winner(t, p, w, Hints{}); got != "sharded" {
		t.Fatalf("default winner = %q, want sharded", got)
	}
	if got := winner(t, p, w, Hints{MaxShards: -1}); got == "sharded" {
		t.Fatalf("MaxShards -1 planned %q", got)
	}
}

// A plan is a pure function of (workload, hints): the same request under
// a design-time budget gets the same generator on a fresh planner and
// after a history of designs, however long each build took.
func TestPlanIgnoresDesignHistory(t *testing.T) {
	w := workload.Prefix(64)
	// 25ms at DefaultUnitsPerSecond admits the exact design (modeled cost
	// ~1.05e7 units) whatever an eigen build measures on this host.
	h := Hints{MaxDesignTime: 25 * time.Millisecond}
	want := winner(t, New(Config{}), w, h)
	if want != "eigen" {
		t.Fatalf("fresh planner winner = %q, want eigen", want)
	}
	p := New(Config{})
	for i := 0; i < 6; i++ {
		plan, err := p.Plan(w, h)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Generator != want {
			t.Fatalf("design %d planned %q after %d earlier designs, want %q", i+1, plan.Generator, i, want)
		}
	}
	if got := winner(t, p, w, h); got != want {
		t.Fatalf("Explain after history = %q, want %q", got, want)
	}
}

// RehydratePlan refuses a persisted plan whose recorded inference label
// disagrees with the rebuilt mechanism's solver: the label is how a
// corrupt plan shows.
func TestRehydrateChecksInferenceLabel(t *testing.T) {
	plan, err := New(Config{}).Plan(workload.Prefix(16), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.State()
	if _, err := RehydratePlan(st); err != nil {
		t.Fatalf("intact plan refused: %v", err)
	}
	for _, bad := range []mm.Inference{0, mm.InferCGLS, 3, mm.InferSharded} {
		st.Inference = bad
		if _, err := RehydratePlan(st); err == nil {
			t.Fatalf("%s plan recorded label %d and was accepted", plan.Mechanism.Inference(), int(bad))
		}
	}
}

// Inference selection: small dense strategies get the pseudo-inverse,
// structured strategies their exact or iterative solver.
func TestInferenceSelection(t *testing.T) {
	p := New(Config{})
	dense, err := p.Plan(workload.Prefix(64), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Inference != mm.InferDensePinv {
		t.Fatalf("small dense plan inference = %s, want dense-pinv", dense.Inference)
	}
	structured, err := p.Plan(workload.AllRange(domain.MustShape(64, 64)), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if structured.Generator != "principal-vectors" || structured.Inference != mm.InferCGLS {
		t.Fatalf("structured plan = %s/%s, want principal-vectors/cgls", structured.Generator, structured.Inference)
	}
	tree, err := p.Plan(workload.Prefix(256), Hints{Generator: "hierarchical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.Mechanism.Solver().(*linalg.TreeSolver); !ok || tree.Inference != mm.InferCGLS {
		t.Fatalf("hierarchical plan: solver %T, inference %s; want *linalg.TreeSolver, cgls", tree.Mechanism.Solver(), tree.Inference)
	}
}

// Every candidate over a microscopic budget still yields a plan: the
// cheapest generator is escalated to rather than failing the request.
func TestOverBudgetEscapesToCheapest(t *testing.T) {
	p := New(Config{})
	if got := winner(t, p, workload.Prefix(64), Hints{MaxDesignCost: 0.5}); got != "identity" {
		t.Fatalf("winner under impossible budget = %q, want identity", got)
	}
}
