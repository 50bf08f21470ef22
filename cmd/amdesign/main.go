// Command amdesign designs a matrix-mechanism strategy for a workload of
// linear counting queries and reports its expected error, optionally
// producing a differentially private release of a histogram.
//
// The workload comes either from a compact specification,
//
//	amdesign -workload allrange:8x16
//	amdesign -workload marginals:2:8x8x4
//
// or from a CSV file of query rows:
//
//	amdesign -workload-csv queries.csv -shape 8x16
//
// Add -data histogram.csv to produce one private release of the workload
// answers, and -strategy-out strategy.csv to save the designed strategy.
//
//	amdesign -workload allrange:8x16 -eps 0.5 -delta 1e-4 -data counts.csv
//
// Strategy selection goes through the unified cost-based planner: by
// default the planner picks the generator (exact eigen, separation,
// principal-vectors, closed-form marginals, hierarchical, identity) by
// expected error within the design budget; -generator forces one, and
// -max-design-ms tightens the budget. -explain prints every
// candidate's admission outcome.
//
// Plans can be persisted and shipped: -save writes the designed plan as a
// plan-store entry (drop the file into an amserve -store directory and a
// server designing the same spec serves it from cache), and -load
// rehydrates a saved plan instead of designing, for offline inspection or
// release.
//
//	amdesign -workload allrange:64x64 -save allrange64.plan
//	amdesign -load allrange64.plan -data counts.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"adaptivemm/internal/core"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/planstore"
	"adaptivemm/internal/wio"
	"adaptivemm/internal/workload"
)

func main() {
	var (
		spec        = flag.String("workload", "", "workload spec, e.g. allrange:8x16, marginals:2:8x8x4, prefix:256, fig1")
		csvPath     = flag.String("workload-csv", "", "CSV file of query rows (one query per line)")
		shapeStr    = flag.String("shape", "", "domain shape for -workload-csv, e.g. 8x16")
		eps         = flag.Float64("eps", 0.5, "privacy parameter ε")
		delta       = flag.Float64("delta", 1e-4, "privacy parameter δ")
		seed        = flag.Int64("seed", 1, "random seed")
		dataPath    = flag.String("data", "", "histogram CSV; produces one private release")
		stratOut    = flag.String("strategy-out", "", "write the designed strategy matrix to this CSV file")
		generator   = flag.String("generator", "", "force a planner generator (eigen, eigen-separation, principal-vectors, marginals, hierarchical, identity)")
		separation  = flag.Int("separation", 0, "use eigen-query separation with this group size")
		principal   = flag.Int("principal", 0, "use the principal-vector optimization with k vectors")
		firstOrder  = flag.Bool("first-order", false, "force the scalable first-order solver")
		maxDesignMS = flag.Int64("max-design-ms", 0, "design-time budget in milliseconds (0 = planner default)")
		explain     = flag.Bool("explain", false, "print every generator's admission outcome")
		savePath    = flag.String("save", "", "write the designed plan to this file (plan-store entry; ship it into an amserve -store directory)")
		loadPath    = flag.String("load", "", "load a saved plan instead of designing (workload flags must be absent)")
	)
	flag.Parse()

	r := rand.New(rand.NewSource(*seed))
	p := mm.Privacy{Epsilon: *eps, Delta: *delta}
	if err := p.Validate(); err != nil {
		fail(err)
	}
	budget, err := planner.DesignTimeMillis(*maxDesignMS)
	if err != nil {
		fail(fmt.Errorf("amdesign: -max-design-ms: %w", err))
	}

	var w *workload.Workload
	var plan *planner.Plan
	if *loadPath != "" {
		if *spec != "" || *csvPath != "" {
			fail(fmt.Errorf("amdesign: -load rehydrates a saved plan; drop -workload/-workload-csv"))
		}
		if *savePath != "" {
			fail(fmt.Errorf("amdesign: -save and -load together would only copy the file"))
		}
		blob, err := os.ReadFile(*loadPath)
		if err != nil {
			fail(err)
		}
		var meta planstore.Meta
		if plan, meta, err = planstore.DecodeEntry(blob); err != nil {
			fail(fmt.Errorf("amdesign: %s: %w", *loadPath, err))
		}
		w = plan.Workload
		fmt.Printf("loaded plan:     %s (key %s, saved %s by %s)\n",
			*loadPath, meta.Key, meta.SavedAt.Format(time.RFC3339), meta.LibVersion)
	} else {
		var err error
		if w, err = loadWorkload(*spec, *csvPath, *shapeStr, r); err != nil {
			fail(err)
		}
	}

	// Every entry point plans through the same pipeline the library API
	// and the release-engine server use.
	hints := planner.Hints{
		Privacy:       p,
		Generator:     *generator,
		FirstOrder:    *firstOrder,
		MaxDesignTime: budget,
		AnalysisCap:   2048,
	}
	switch {
	case *separation > 0:
		hints.Generator = "eigen-separation"
		hints.GroupSize = *separation
	case *principal > 0:
		hints.Generator = "principal-vectors"
		hints.PrincipalK = *principal
	}
	if plan == nil {
		pl := planner.New(planner.Config{})
		var err error
		if plan, err = pl.Plan(w, hints); err != nil {
			fail(err)
		}
	}

	if *savePath != "" {
		// Spec-described workloads get the canonical server cache key, so a
		// shipped plan is found by /design of the same spec; CSV workloads
		// get a file-scoped key (loadable, but never a spec cache hit).
		key := planstore.CanonicalKey(*spec, *seed, hints.Fingerprint())
		if *spec == "" {
			key = "file:" + *csvPath + "|" + hints.Fingerprint()
		}
		blob, _, err := planstore.EncodeEntry(key, plan, time.Now())
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*savePath, blob, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("plan saved to %s (%d bytes, key %s)\n", *savePath, len(blob), key)
	}

	fmt.Printf("workload:        %s (%d queries, %d cells)\n", w.Name(), w.NumQueries(), w.Cells())
	dense, isDense := plan.Op.(*linalg.Matrix)
	form := "dense"
	if !isDense {
		form = "operator (matrix-free)"
	}
	fmt.Printf("strategy:        %d queries, %s\n", plan.Op.Rows(), form)
	fmt.Printf("planner:         %s (modeled cost %.3g, design %s, inference %s)\n",
		plan.Generator, plan.ModeledCost, plan.DesignTime.Round(time.Microsecond), plan.Inference)
	fmt.Printf("                 %s\n", plan.Note)
	fmt.Printf("solver:          %s (sampled %v)\n", plan.Mechanism.SolverKind(), plan.Mechanism.Sampled())
	for i, s := range plan.Shards {
		where := s.Kind
		if len(s.Attrs) > 0 {
			where = fmt.Sprintf("attrs %v", s.Attrs)
		}
		fmt.Printf("  shard %-2d       %s: %s (%d cells, %d queries, inference %s, modeled cost %.3g)\n",
			i, where, s.Generator, s.Cells, s.Queries, s.Inference, s.ModeledCost)
	}
	if *explain {
		for _, d := range plan.Decisions {
			verdict := "rejected"
			if d.Selected {
				verdict = "selected"
			} else if d.Admitted {
				verdict = "admitted"
			}
			fmt.Printf("  %-18s %-8s %s\n", d.Generator, verdict, d.Reason)
		}
	}
	e, err := plan.ExpectedError(p)
	if err != nil {
		fail(err)
	}
	if e > 0 {
		fmt.Printf("expected RMSE:   %.4g  (ε=%g, δ=%g)\n", e, *eps, *delta)
		lb := plan.LowerBound(p)
		if lb == 0 {
			// Generators without eigenvalues (hierarchical, identity)
			// still deserve the ratio report: the Thm 2 bound depends on
			// the workload alone, and the domain already passed the
			// analysis cap to get here.
			if lb, err = mm.LowerBound(w, p); err != nil {
				fail(err)
			}
		}
		if lb > 0 {
			fmt.Printf("lower bound:     %.4g  (ratio %.3f)\n", lb, e/lb)
		}
	} else {
		fmt.Printf("expected RMSE:   skipped (%d cells past the analysis cap; analysis needs O(n³) dense algebra)\n", w.Cells())
	}
	if len(plan.Eigenvalues) > 0 {
		fmt.Printf("Thm 3 ratio cap: %.3f\n", core.ApproxRatioBound(plan.Eigenvalues))
	}

	if *stratOut != "" {
		if !isDense {
			fail(fmt.Errorf("amdesign: structured strategy is matrix-free; -strategy-out requires a dense design (smaller domain)"))
		}
		if err := writeStrategy(*stratOut, dense); err != nil {
			fail(err)
		}
		fmt.Printf("strategy written to %s\n", *stratOut)
	}

	if *dataPath != "" {
		if err := release(w, plan.Mechanism, *dataPath, p, r); err != nil {
			fail(err)
		}
	}
}

func loadWorkload(spec, csvPath, shapeStr string, r *rand.Rand) (*workload.Workload, error) {
	switch {
	case spec != "" && csvPath != "":
		return nil, fmt.Errorf("amdesign: use either -workload or -workload-csv, not both")
	case spec != "":
		return wio.ParseWorkloadSpec(spec, r)
	case csvPath != "":
		if shapeStr == "" {
			return nil, fmt.Errorf("amdesign: -workload-csv requires -shape")
		}
		shape, err := wio.ParseShape(shapeStr)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := wio.ReadMatrixCSV(f)
		if err != nil {
			return nil, err
		}
		return workload.FromMatrix(csvPath, shape, m), nil
	default:
		return nil, fmt.Errorf("amdesign: provide -workload or -workload-csv (try -workload fig1)")
	}
}

func writeStrategy(path string, a *linalg.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return wio.WriteMatrixCSV(f, a)
}

func release(w *workload.Workload, mech *mm.Mechanism, dataPath string, p mm.Privacy, r *rand.Rand) error {
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	x, err := wio.ReadVectorCSV(f)
	if err != nil {
		return err
	}
	if len(x) != w.Cells() {
		return fmt.Errorf("amdesign: histogram has %d cells, workload expects %d", len(x), w.Cells())
	}
	// Stream the release chunk by chunk: noise and inference run once,
	// then answers are produced into one reused chunk buffer — memory
	// stays bounded however many queries the workload answers.
	st, err := mech.StreamRelease(w, x, p, r, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Println("private answers:")
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for {
		off, chunk, ok := st.Next()
		if !ok {
			return nil
		}
		for i, v := range chunk {
			fmt.Fprintf(out, "%d,%.6g\n", off+i, v)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
