package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptivemm/internal/accountant"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/planstore"
)

// serverAnalysisCap mirrors the HTTP server's error-analysis cell cap, so
// the planner called directly plans exactly what POST /design plans.
const serverAnalysisCap = 512

// maxBatches bounds how many timed batches one measurement keeps; the
// batch timings are preallocated so timing allocates nothing.
const maxBatches = 4096

// measure times f under a span name. It grows the number of calls per
// batch until one batch takes at least minBatch (that first calibration
// doubles as warm-up), then times batches until budget is spent and at
// least minReps batches ran. It returns the per-call seconds of every
// batch and the heap allocations per call.
func (b *bench) measure(name string, budget time.Duration, minReps int, f func()) (perCall []float64, allocs float64) {
	const minBatch = time.Millisecond
	k := 1
	for {
		t0 := time.Now()
		for range k {
			f()
		}
		if time.Since(t0) >= minBatch || k >= 1<<20 {
			break
		}
		k *= 2
	}
	if b.quick {
		budget, minReps = budget/10, 1
	}
	starts := make([]time.Time, 0, maxBatches)
	ends := make([]time.Time, 0, maxBatches)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	for len(starts) < maxBatches && (len(starts) < minReps || time.Since(begin) < budget) {
		starts = append(starts, time.Now())
		for range k {
			f()
		}
		ends = append(ends, time.Now())
	}
	runtime.ReadMemStats(&ms1)
	perCall = make([]float64, len(starts))
	for i := range starts {
		perCall[i] = ends[i].Sub(starts[i]).Seconds() / float64(k)
		b.tr.add(name, 0, "", b.tr.ns(starts[i]), b.tr.ns(ends[i]), k)
	}
	return perCall, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(starts)*k)
}

// countingOp counts the products a solver asks of its operator.
type countingOp struct {
	linalg.Operator
	products int
}

func (c *countingOp) MulVecInto(dst, x []float64) {
	c.products++
	linalg.MulVecInto(c.Operator, dst, x)
}

func (c *countingOp) MulVecTInto(dst, y []float64) {
	c.products++
	linalg.MulVecTInto(c.Operator, dst, y)
}

// productBytes models the bytes one product with op streams through
// memory: its stored representation once, plus its input and output
// vectors; a Kronecker product reads and writes the whole intermediate
// tensor once per factor. It is computed from the representation, not
// measured. exact is false when op hides its structure from the model,
// which then counts the vectors only.
func productBytes(op linalg.Operator) (bytes float64, exact bool) {
	r, c := float64(op.Rows()), float64(op.Cols())
	switch o := op.(type) {
	case *linalg.Matrix:
		return 8 * (r*c + r + c), true
	case *linalg.Sparse:
		return 16*float64(o.NNZ()) + 8*(r+1) + 8*(r+c), true
	case *linalg.NormedOp:
		return productBytes(o.Operator)
	case *linalg.KronOp:
		exact = true
		in := c
		for _, f := range o.Factors() {
			out := in / float64(f.Cols()) * float64(f.Rows())
			fb, fe := productBytes(f)
			// The factor's own vectors are fibers of the intermediate
			// tensor, already counted by in and out.
			bytes += fb - 8*float64(f.Rows()+f.Cols()) + 8*(in+out)
			exact = exact && fe
			in = out
		}
		return bytes, exact
	default:
		return 8 * (r + c), false
	}
}

// layerReport holds the per-layer numbers measured by calling each layer
// directly.
type layerReport struct {
	metrics map[string]float64
	notes   []string
}

func (lr *layerReport) note(format string, args ...any) {
	lr.notes = append(lr.notes, fmt.Sprintf(format, args...))
}

// measureLayers times planner, planstore, mm, linalg and accountant
// through their public functions, on the plan the planner makes for this
// workload with the hints the server uses.
func (b *bench) measureLayers() (*layerReport, error) {
	lr := &layerReport{metrics: map[string]float64{}}
	priv := mm.Privacy{Epsilon: releaseEpsilon, Delta: releaseDelta}
	hints := planner.Hints{Privacy: priv, AnalysisCap: serverAnalysisCap}

	// planner: a cold planner per design, as a fresh server has.
	var plan *planner.Plan
	var planErr error
	design, _ := b.measure("planner.Plan", time.Second, 1, func() {
		plan, planErr = planner.New(planner.Config{}).Plan(b.wl, hints)
	})
	if planErr != nil {
		return nil, fmt.Errorf("planning %s: %w", b.wd.spec, planErr)
	}
	if plan.Generator != b.design.Planner.Generator || plan.Inference.String() != b.design.Planner.Inference {
		b.fail("direct plan is %s/%s, the server planned %s/%s", plan.Generator, plan.Inference, b.design.Planner.Generator, b.design.Planner.Inference)
	}
	lr.metrics["planner.design_s"] = median(design)
	pl := planner.New(planner.Config{})
	sel, _ := b.measure("planner.Explain", 300*time.Millisecond, 5, func() {
		if _, err := pl.Explain(b.wl, hints); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		return nil, fmt.Errorf("explaining %s: %w", b.wd.spec, planErr)
	}
	lr.metrics["planner.select_us"] = median(sel) * 1e6
	lr.metrics["planner.modeled_cost"] = plan.ModeledCost
	lr.note("plan: generator %s, inference %s, strategy %T %dx%d", plan.Generator, plan.Inference, plan.Mechanism.Strategy(), plan.Mechanism.Strategy().Rows(), plan.Mechanism.Strategy().Cols())

	if err := b.measurePlanstore(lr, plan, hints); err != nil {
		return nil, err
	}
	if err := b.measureMechanism(lr, plan.Mechanism, priv); err != nil {
		return nil, err
	}

	// accountant: one reservation settled, as the server does per release.
	acct := accountant.New()
	var acctErr error
	settle, _ := b.measure("accountant.ReserveCommit", 200*time.Millisecond, 5, func() {
		res, err := acct.Reserve(benchDataset, accountant.Budget{Epsilon: releaseEpsilon, Delta: releaseDelta})
		if err != nil {
			acctErr = err
			return
		}
		res.Commit()
	})
	if acctErr != nil {
		return nil, acctErr
	}
	lr.metrics["accountant.settle_ns"] = median(settle) * 1e9
	return lr, nil
}

func (b *bench) measurePlanstore(lr *layerReport, plan *planner.Plan, hints planner.Hints) error {
	key := planstore.CanonicalKey(b.wd.spec, 1, hints.Fingerprint())
	var blob []byte
	var err error
	enc, _ := b.measure("planstore.EncodeEntry", time.Second, 3, func() {
		blob, _, err = planstore.EncodeEntry(key, plan, time.Now())
	})
	if err != nil {
		return fmt.Errorf("encoding plan entry: %w", err)
	}
	dec, _ := b.measure("planstore.DecodeEntry", time.Second, 3, func() {
		_, _, err = planstore.DecodeEntry(blob)
	})
	if err != nil {
		return fmt.Errorf("decoding plan entry: %w", err)
	}
	dir := filepath.Join(b.workDir, "layer-store")
	st, err := planstore.Open(dir)
	if err != nil {
		return err
	}
	if _, err := st.Put(key, plan); err != nil {
		return fmt.Errorf("storing plan: %w", err)
	}
	var n int
	load, _ := b.measure("planstore.LoadAll", time.Second, 3, func() {
		s, e := planstore.Open(dir)
		if e != nil {
			err = e
			return
		}
		var l []planstore.Loaded
		l, err = s.LoadAll(nil)
		n = len(l)
	})
	if err != nil || n != 1 {
		return fmt.Errorf("reloading the plan store: %d entries, %v", n, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	lr.metrics["planstore.entry_bytes"] = float64(len(blob))
	lr.metrics["planstore.encode_ms"] = median(enc) * 1e3
	lr.metrics["planstore.decode_ms"] = median(dec) * 1e3
	lr.metrics["planstore.loadall_ms"] = median(load) * 1e3
	return nil
}

func (b *bench) measureMechanism(lr *layerReport, mech *mm.Mechanism, priv mm.Privacy) error {
	sc := mech.NewScratch()
	cs := mm.AcquireCryptoSource()
	defer mm.ReleaseCryptoSource(cs)
	var relErr error
	rel, allocs := b.measure("mm.EstimateGaussianInto", time.Second, 5, func() {
		if _, err := mech.EstimateGaussianInto(sc, b.hist, priv, cs); err != nil {
			relErr = err
		}
	})
	if relErr != nil {
		return fmt.Errorf("direct release: %w", relErr)
	}
	lr.metrics["mm.release_us"] = median(rel) * 1e6
	lr.metrics["mm.allocs_per_release"] = allocs

	op := mech.Strategy()
	y := linalg.MulVecInto(op, make([]float64, op.Rows()), b.hist)
	xt := make([]float64, op.Cols())
	mv, _ := b.measure("linalg.MulVecInto", 300*time.Millisecond, 5, func() {
		linalg.MulVecInto(op, y, b.hist)
	})
	mvt, _ := b.measure("linalg.MulVecTInto", 300*time.Millisecond, 5, func() {
		linalg.MulVecTInto(op, xt, y)
	})
	lr.metrics["linalg.matvec_us"] = median(mv) * 1e6
	lr.metrics["linalg.matvec_t_us"] = median(mvt) * 1e6

	// One CGLS solve of seeded noisy strategy answers, counting products:
	// the seed fixes the right-hand side, so the count repeats exactly.
	rng := rand.New(rand.NewSource(b.seed))
	sigma := priv.GaussianSigma(mech.SensitivityL2())
	for i := range y {
		y[i] += sigma * rng.NormFloat64()
	}
	cop := &countingOp{Operator: op}
	var solveErr error
	b.tr.timed("linalg.SolveCGLSInto", func() {
		solveErr = linalg.SolveCGLSInto(cop, y, xt, linalg.CGOptions{}, &linalg.CGWorkspace{})
	})
	if solveErr != nil {
		return fmt.Errorf("CGLS solve: %w", solveErr)
	}
	lr.metrics["linalg.products_per_solve"] = float64(cop.products)

	// The operator the plan's inference multiplies by on every iteration.
	iterOp, what := op, "strategy operator"
	switch {
	case mech.PreparedGram() != nil:
		iterOp, what = mech.PreparedGram(), "dense Gram"
	case mech.PreparedPinv() != nil:
		iterOp, what = mech.PreparedPinv(), "dense pseudo-inverse"
	}
	bytes, exact := productBytes(iterOp)
	lr.metrics["linalg.bytes_per_product"] = bytes
	model := "computed from the representation, not measured"
	if !exact {
		model += "; the representation is opaque to the model, so only its vectors are counted"
	}
	lr.note("linalg.bytes_per_product: %s %T %dx%d, %s", what, iterOp, iterOp.Rows(), iterOp.Cols(), model)
	return nil
}
