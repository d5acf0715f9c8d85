// Command nimble-bench runs the experiment harness and prints the
// EXPERIMENTS.md tables.
//
// Usage:
//
//	nimble-bench [-full] [-only E5]
//
// Without flags it runs every experiment at quick scale; -full uses the
// larger sizes EXPERIMENTS.md reports; -only runs a single experiment by
// id (F1, E1..E9).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	full := flag.Bool("full", false, "run at full scale (slower; the EXPERIMENTS.md numbers)")
	only := flag.String("only", "", "run a single experiment by id (F1, E1..E9)")
	flag.Parse()

	scale := experiments.QuickScale()
	label := "quick"
	if *full {
		scale = experiments.FullScale()
		label = "full"
	}
	fmt.Printf("nimble-bench: scale=%s customers=%d queries=%d trials=%d\n\n",
		label, scale.Customers, scale.Queries, scale.Trials)

	runners := map[string]func(experiments.Scale) *experiments.Table{
		"F1": experiments.F1Architecture,
		"E1": experiments.E1WarehousingVsVirtual,
		"E2": experiments.E2ViewSelection,
		"E3": experiments.E3QueryCache,
		"E4": experiments.E4PartialResults,
		"E5": experiments.E5Pushdown,
		"E6": experiments.E6Cleaning,
		"E7": experiments.E7LoadBalance,
		"E8": experiments.E8Algebra,
		"E9": experiments.E9Hierarchy,
	}
	order := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}

	if *only != "" {
		id := strings.ToUpper(*only)
		if _, ok := runners[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *only, strings.Join(order, ", "))
			os.Exit(2)
		}
		order = []string{id}
	}
	for _, id := range order {
		start := time.Now()
		table := runners[id](scale)
		fmt.Print(table.String())
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	// Observability snapshot: everything the experiments recorded into
	// the default registry (systems built with an explicit Config.Metrics
	// registry are not included).
	if snap := obs.Default().Summary(); snap != "" {
		fmt.Println("observability snapshot (default registry):")
		fmt.Print(snap)
	}
}
