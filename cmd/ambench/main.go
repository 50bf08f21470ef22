// Command ambench regenerates the tables and figures of Li & Miklau,
// "An Adaptive Mechanism for Accurate Query Answering under Differential
// Privacy" (VLDB 2012).
//
// Usage:
//
//	ambench -exp fig3a                 # one experiment at medium scale
//	ambench -exp all -scale full       # everything at paper scale (slow)
//	ambench -list                      # show experiment ids
//
// Each experiment prints one or more tables mirroring the corresponding
// artifact in the paper's Sec 5. See EXPERIMENTS.md for a paper-vs-measured
// summary.
//
// Release-engine performance is measured by perfbench (see
// perfbench/README.md and BENCHMARK.json), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"adaptivemm/internal/experiments"
	"adaptivemm/internal/mm"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id or 'all'")
		scale  = flag.String("scale", "medium", "small | medium | full (paper sizes)")
		eps    = flag.Float64("eps", 0.5, "privacy parameter ε")
		delta  = flag.Float64("delta", 1e-4, "privacy parameter δ")
		seed   = flag.Int64("seed", 1, "random seed for workload sampling and noise")
		trials = flag.Int("trials", 3, "Monte-Carlo trials for relative-error experiments")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Title(id))
		}
		return
	}

	cfg := experiments.Config{
		Scale:   *scale,
		Privacy: mm.Privacy{Epsilon: *eps, Delta: *delta},
		Seed:    *seed,
		Trials:  *trials,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ambench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if err := t.Format(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
