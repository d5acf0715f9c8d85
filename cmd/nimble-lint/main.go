// nimble-lint runs the repository's invariant-checking analyzers
// (internal/analysis) over the packages matched by the given patterns
// and prints every finding as file:line:col: analyzer: message. It
// exits 1 when there are findings, 0 when the tree is clean.
//
// Usage:
//
//	go run ./cmd/nimble-lint [-list] [packages]
//
//	-list  print the analyzer roster and exit
//
// Patterns default to ./... . There is no suppression directive: a false
// positive is fixed in the code or in the analyzer.
//
// All targets run inside one analysis.Session, so suite-level analyzers
// (lockorder's lock-acquisition graph) see the whole program, not one
// package at a time.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	listFlag := flag.Bool("list", false, "print the analyzer roster and exit")
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	targets, err := loader.LoadTargets(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nimble-lint: %v\n", err)
		os.Exit(2)
	}
	if len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "nimble-lint: no packages match %s\n", strings.Join(patterns, " "))
		os.Exit(2)
	}

	// Per-target passes accumulate into one session; suite-level Finish
	// hooks run once over everything the session saw.
	session := analysis.NewSession(loader.Fset)
	var found []analysis.Diagnostic
	for _, target := range targets {
		diags, err := session.RunTarget(target, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nimble-lint: %s: %v\n", target.Path, err)
			os.Exit(2)
		}
		found = append(found, diags...)
	}
	found = append(found, session.FinishAll(analyzers)...)

	sort.SliceStable(found, func(i, j int) bool {
		a, b := loader.Fset.Position(found[i].Pos), loader.Fset.Position(found[j].Pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, d := range found {
		fmt.Printf("%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "nimble-lint: %d finding(s) in %d package(s)\n", len(found), len(targets))
		os.Exit(1)
	}
}
