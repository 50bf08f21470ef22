package planstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivemm/internal/binenc"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/workload"
)

var testPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

// plansUnderTest builds one plan per serving regime: small dense exact
// (dense-pinv inference), forced hierarchical over one dimension (exact
// tree solver) and over two (exact Kronecker solver), factored principal
// vectors (exact Woodbury solver) on the smallest product domain the
// planner sends down the factored pipeline (25×41 = 1,025 cells, past
// StructuredThreshold), an exact eigen design over two dimensions (a
// second persisted pseudo-inverse), closed-form marginals, a tall
// non-tree sparse strategy (iterative CGLS, nothing persisted beyond the
// operator), and a sharded two-block composition.
// regimeSolvers names the solver each regime's mechanism must hold.
func plansUnderTest(t *testing.T) map[string]*planner.Plan {
	t.Helper()
	out := map[string]*planner.Plan{}
	pl := planner.New(planner.Config{})
	pl.Register(tallGen{})
	build := func(name string, w *workload.Workload, h planner.Hints) {
		h.Privacy = testPrivacy
		plan, err := pl.Plan(w, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = plan
	}
	build("eigen-pinv", workload.Prefix(64), planner.Hints{})
	build("hierarchical-cgls", workload.Prefix(512), planner.Hints{Generator: "hierarchical"})
	build("hierarchical-kron", workload.AllRange(domain.MustShape(8, 16)), planner.Hints{Generator: "hierarchical"})
	build("principal-eigen", workload.AllRange(domain.MustShape(25, 41)), planner.Hints{Generator: "principal-vectors"})
	build("eigen-pinv-2d", workload.AllRange(domain.MustShape(4, 8)), planner.Hints{})
	build("marginals", workload.Marginals(domain.MustShape(8, 8, 4), 2), planner.Hints{})
	build("tall-cgls", workload.Prefix(128), planner.Hints{Generator: "tall"})
	build("sharded", workload.Marginals(domain.MustShape(8, 8), 1), planner.Hints{})
	return out
}

var regimeSolvers = map[string]string{
	"eigen-pinv":        "*linalg.PinvSolver",
	"hierarchical-cgls": "*linalg.TreeSolver",
	"hierarchical-kron": "*linalg.KronSolver",
	"principal-eigen":   "*linalg.EigenSolver",
	"eigen-pinv-2d":     "*linalg.PinvSolver",
	"marginals":         "*linalg.PinvSolver",
	"tall-cgls":         "*linalg.CGLSSolver",
	"sharded":           "*linalg.BlockSolver",
}

// tallGen produces a sparse strategy with 6n rows that is no interval
// forest, so the planner picks plain CGLS and the mechanism has no exact
// solver and no precomputed artifact.
type tallGen struct{}

func (tallGen) Name() string { return "tall" }
func (tallGen) Propose(w *workload.Workload, h planner.Hints, forced bool) (*planner.Proposal, string) {
	if !forced {
		return nil, "rule hint: test generator, force it"
	}
	n := w.Cells()
	return &planner.Proposal{Cost: float64(n), Score: 9, Note: "tall test strategy",
		Build: func() (planner.Built, error) {
			b := linalg.NewSparseBuilder(n)
			for rep := 0; rep < 6; rep++ {
				for j := 0; j < n; j++ {
					b.AppendRow([]int{j, (j + 1) % n}, []float64{1, 0.5})
				}
			}
			return planner.Built{Op: b.Build()}, nil
		}}, ""
}

func TestPlanRoundTripAllRegimes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range plansUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if got := fmt.Sprintf("%T", plan.Mechanism.Solver()); got != regimeSolvers[name] {
				t.Fatalf("solver %s, want %s", got, regimeSolvers[name])
			}
			key := CanonicalKey("test:"+name, 1, "fp")
			meta, err := s.Put(key, plan)
			if err != nil {
				t.Fatalf("put: %v", err)
			}
			if meta.Generator != plan.Generator || meta.Cells != plan.Workload.Cells() {
				t.Fatalf("meta %+v does not describe the plan", meta)
			}
			got, gotMeta, err := s.Load(meta.ID)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if gotMeta.Key != key || gotMeta.LibVersion != LibraryVersion {
				t.Fatalf("loaded meta %+v", gotMeta)
			}
			assertPlansEquivalent(t, plan, got)
		})
	}
}

// assertPlansEquivalent checks the rehydrated plan against the original:
// descriptive fields, memoized analyses, and — the part releases depend
// on — identical private answers on an identical noise stream.
func assertPlansEquivalent(t *testing.T, want, got *planner.Plan) {
	t.Helper()
	if got.Generator != want.Generator || got.Note != want.Note {
		t.Fatalf("generator/note = %q/%q, want %q/%q", got.Generator, got.Note, want.Generator, want.Note)
	}
	if got.Inference != want.Inference {
		t.Fatalf("inference = %s, want %s", got.Inference, want.Inference)
	}
	// Answers agree to 1e-9 through any solver, so only the solver's type
	// shows that rehydration kept the fast one (a tree or Kronecker plan
	// on plain CGLS would run ~100× slower).
	assertSameSolver(t, "plan", want.Mechanism, got.Mechanism)
	for i, s := range want.Mechanism.Shards() {
		assertSameSolver(t, fmt.Sprintf("shard %d", i), s.Mechanism, got.Mechanism.Shards()[i].Mechanism)
	}
	if got.ModeledCost != want.ModeledCost || got.DesignTime != want.DesignTime {
		t.Fatalf("cost/time = %g/%s, want %g/%s", got.ModeledCost, got.DesignTime, want.ModeledCost, want.DesignTime)
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("decisions %d, want %d", len(got.Decisions), len(want.Decisions))
	}
	for i := range want.Decisions {
		if got.Decisions[i] != want.Decisions[i] {
			t.Fatalf("decision %d = %+v, want %+v", i, got.Decisions[i], want.Decisions[i])
		}
	}
	if len(got.Eigenvalues) != len(want.Eigenvalues) {
		t.Fatalf("eigenvalues %d, want %d", len(got.Eigenvalues), len(want.Eigenvalues))
	}
	for i := range want.Eigenvalues {
		if got.Eigenvalues[i] != want.Eigenvalues[i] {
			t.Fatalf("eigenvalue %d = %g, want %g", i, got.Eigenvalues[i], want.Eigenvalues[i])
		}
	}
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("shards %d, want %d", len(got.Shards), len(want.Shards))
	}
	// Memoized error must be served without recomputation and match.
	wantSt, gotSt := want.State(), got.State()
	if len(gotSt.ErrByPair) != len(wantSt.ErrByPair) {
		t.Fatalf("error memo has %d pairs, want %d", len(gotSt.ErrByPair), len(wantSt.ErrByPair))
	}
	for pr, e := range wantSt.ErrByPair {
		if ge, ok := gotSt.ErrByPair[pr]; !ok || ge != e {
			t.Fatalf("memoized error for %+v = %g, want %g", pr, gotSt.ErrByPair[pr], e)
		}
	}
	// Sensitivity — the noise calibration — must survive exactly.
	if gs, ws := got.Mechanism.SensitivityL2(), want.Mechanism.SensitivityL2(); math.Abs(gs-ws) > 1e-12*ws {
		t.Fatalf("sensitivity %g, want %g", gs, ws)
	}
	// Same histogram, same seeded noise stream → same released answers.
	x := make([]float64, want.Workload.Cells())
	r := rand.New(rand.NewSource(99))
	for i := range x {
		x[i] = float64(r.Intn(50))
	}
	wantAns, err := want.Mechanism.AnswerGaussian(want.Workload, x, testPrivacy, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("original release: %v", err)
	}
	gotAns, err := got.Mechanism.AnswerGaussian(got.Workload, x, testPrivacy, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("rehydrated release: %v", err)
	}
	if len(gotAns) != len(wantAns) {
		t.Fatalf("answers %d, want %d", len(gotAns), len(wantAns))
	}
	for i := range wantAns {
		if math.Abs(gotAns[i]-wantAns[i]) > 1e-9*(1+math.Abs(wantAns[i])) {
			t.Fatalf("answer %d = %g, want %g", i, gotAns[i], wantAns[i])
		}
	}
}

func assertSameSolver(t *testing.T, what string, want, got *mm.Mechanism) {
	t.Helper()
	if ws, gs := fmt.Sprintf("%T", want.Solver()), fmt.Sprintf("%T", got.Solver()); gs != ws {
		t.Fatalf("%s: rehydrated solver %s, want %s", what, gs, ws)
	}
}

// TestRehydratedPlanSkipsPreparation asserts the artifacts were actually
// persisted: a dense-pinv plan decodes with its pseudo-inverse present,
// while a CGLS plan's entry carries no inference artifact at all.
func TestRehydratedPlanSkipsPreparation(t *testing.T) {
	plans := plansUnderTest(t)
	blob, _, err := EncodeEntry("k", plans["eigen-pinv"], time.Now())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeEntry(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mechanism.PreparedPinv() == nil {
		t.Fatal("rehydrated dense-pinv mechanism has no persisted pseudo-inverse")
	}
	tall := plans["tall-cgls"]
	if tall.Inference != mm.InferCGLS {
		t.Fatalf("tall plan chose %s, want cgls", tall.Inference)
	}
	blob, _, err = EncodeEntry("k2", tall, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err = DecodeEntry(blob); err != nil {
		t.Fatal(err)
	}
	if got.Mechanism.PreparedPinv() != nil {
		t.Fatal("rehydrated CGLS mechanism carries a dense inference artifact")
	}
	// The entry is the strategy's CSR form (2 nonzeros a row) plus plan
	// metadata, well under the 8n² bytes of one dense n×n artifact.
	if n := tall.Op.Cols(); len(blob) > 4*n*n {
		t.Fatalf("CGLS entry is %d bytes, want under half a dense %dx%d artifact (%d)", len(blob), n, n, 8*n*n)
	}
}

// TestExpectedErrorOnNewPairAfterRehydration: a pair outside the memo
// must still be computable from the decoded workload operator.
func TestExpectedErrorOnNewPairAfterRehydration(t *testing.T) {
	plan := plansUnderTest(t)["eigen-pinv"]
	blob, _, err := EncodeEntry("k", plan, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeEntry(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mm.Privacy{Epsilon: 1.25, Delta: 1e-6}
	wantE, err := plan.ExpectedError(fresh)
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := got.ExpectedError(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if wantE == 0 || math.Abs(gotE-wantE) > 1e-9*wantE {
		t.Fatalf("fresh-pair error %g, want %g", gotE, wantE)
	}
}

// TestCorruptedEntriesAreSkippedNotFatal is the satellite requirement:
// a bit-flipped entry fails its checksum, LoadAll reports it and loads
// everything else, and nothing panics.
func TestCorruptedEntriesAreSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plans := plansUnderTest(t)
	goodMeta, err := s.Put("good", plans["marginals"])
	if err != nil {
		t.Fatal(err)
	}
	badMeta, err := s.Put("bad", plans["eigen-pinv"])
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, badMeta.ID+planExt)
	blob, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(badPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var msgs []string
	loaded, err := s.LoadAll(func(format string, args ...any) {
		msgs = append(msgs, strings.TrimSpace(strings.Join([]string{format}, "")))
	})
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(loaded) != 1 || loaded[0].Meta.ID != goodMeta.ID {
		t.Fatalf("loaded %d entries, want only the good one", len(loaded))
	}
	if len(msgs) != 1 {
		t.Fatalf("skip reasons logged = %d, want 1", len(msgs))
	}
	if _, _, err := s.Load(badMeta.ID); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("loading the corrupt entry: err = %v, want checksum mismatch", err)
	}
}

// TestIncompatibleFormatVersionSkipped: an entry from a future format is
// refused with a version reason, not decoded.
func TestIncompatibleFormatVersionSkipped(t *testing.T) {
	plan := plansUnderTest(t)["eigen-pinv"]
	blob, _, err := EncodeEntry("k", plan, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Patch the version varint (first byte after the magic; FormatVersion
	// is single-byte) and re-seal the checksum so only the version differs.
	blob[len(planMagic)] = FormatVersion + 1
	reseal(blob)
	if _, _, err := DecodeEntry(blob); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("future-version entry: err = %v, want a format-version refusal", err)
	}
}

// TestFormatOneEntrySkipped: entries written under format 1, the layout
// that still carried a Gram matrix field, and format 2, which still
// flagged a separate dense strategy, are skipped with a version reason
// while the other entries load.
func TestFormatOneEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plans := plansUnderTest(t)
	good, err := s.Put("good", plans["marginals"])
	if err != nil {
		t.Fatal(err)
	}
	oldVersions := []byte{1, 2}
	for _, v := range oldVersions {
		old, err := s.Put(fmt.Sprintf("old-%d", v), plans["tall-cgls"])
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, old.ID+planExt)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(planMagic)] = v
		reseal(blob)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var reasons []string
	loaded, err := s.LoadAll(func(format string, args ...any) {
		reasons = append(reasons, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(loaded) != 1 || loaded[0].Meta.ID != good.ID {
		t.Fatalf("loaded %d entries, want only the format-%d one", len(loaded), FormatVersion)
	}
	if len(reasons) != len(oldVersions) {
		t.Fatalf("skip reasons %q, want one per old entry", reasons)
	}
	for _, v := range oldVersions {
		want := fmt.Sprintf("format version %d, this build reads %d", v, FormatVersion)
		if !strings.Contains(strings.Join(reasons, "\n"), want) {
			t.Fatalf("skip reasons %q, want one naming %q", reasons, want)
		}
	}
}

func reseal(blob []byte) {
	sum := sha256.Sum256(blob[:len(blob)-sha256.Size])
	copy(blob[len(blob)-sha256.Size:], sum[:])
}

// TestCraftedLengthDoesNotPanic: a checksum-valid entry whose payload
// claims a string longer than the bytes remaining must decode to an
// error, not a slice-bounds panic — anyone who can place a file in the
// store directory must not be able to crash startup.
func TestCraftedLengthDoesNotPanic(t *testing.T) {
	var out bytes.Buffer
	out.WriteString(planMagic)
	binenc.PutInt(&out, FormatVersion)
	binenc.PutString(&out, LibraryVersion)
	binenc.PutString(&out, "crafted-key")
	binenc.PutU64(&out, 0)
	binenc.PutString(&out, "gen")
	binenc.PutString(&out, "wl")
	binenc.PutInt(&out, 1)
	binenc.PutInt(&out, 1)
	binenc.PutInt(&out, 0)
	// The plan payload opens with a generator string claiming far more
	// bytes than exist.
	var payload bytes.Buffer
	binenc.PutUvarint(&payload, 1<<20)
	payload.WriteString("x")
	binenc.PutBytes(&out, payload.Bytes())
	sum := sha256.Sum256(out.Bytes())
	out.Write(sum[:])

	if _, _, err := DecodeEntry(out.Bytes()); err == nil {
		t.Fatal("crafted over-length entry decoded without error")
	}
}

func TestListAndDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plans := plansUnderTest(t)
	m1, err := s.Put("key-a", plans["eigen-pinv"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("key-b", plans["sharded"]); err != nil {
		t.Fatal(err)
	}
	metas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Key != "key-a" || metas[1].Key != "key-b" {
		t.Fatalf("list = %+v", metas)
	}
	if metas[1].Shards == 0 {
		t.Fatal("sharded entry lists zero shards")
	}
	if err := s.Delete(m1.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(m1.ID); err == nil {
		t.Fatal("double delete did not error")
	}
	if metas, _ = s.List(); len(metas) != 1 {
		t.Fatalf("after delete, %d entries remain", len(metas))
	}
	if err := s.Delete("../escape"); err == nil {
		t.Fatal("path-traversal id accepted")
	}
}

func TestCanonicalKeyNormalization(t *testing.T) {
	a := CanonicalKey(" AllRange:8x16 ", 0, "fp")
	b := CanonicalKey("allrange:8x16", 1, "fp")
	if a != b {
		t.Fatalf("%q != %q", a, b)
	}
	if EntryID(a) != EntryID(b) || len(EntryID(a)) != 24 {
		t.Fatalf("ids diverge or malformed: %q %q", EntryID(a), EntryID(b))
	}
}
