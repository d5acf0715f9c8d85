// Command nimble-cli is an interactive XML-QL shell over the demo
// deployment (the same one nimbled serves). With a query argument it
// runs once and exits (`nimble-cli -explain 'WHERE ...'` prints the
// per-operator EXPLAIN ANALYZE tree). Interactively, queries may span
// multiple lines and end with a blank line; meta-commands start with a
// dot:
//
//	.sources            list registered sources
//	.schemas            list mediated schemas
//	.materialize NAME   store a schema locally
//	.refresh [NAME]     refresh one or all materialized schemas
//	.drop NAME          drop a local copy
//	.explain            toggle EXPLAIN ANALYZE output
//	.quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	nimble "repro"
	"repro/internal/workload"
)

// boot assembles the demo deployment: a relational CRM database plus an
// XML support-ticket feed, so federated (two-source) queries work out of
// the box.
func boot(customers int) (*nimble.System, error) {
	sys := nimble.New(nimble.Config{CacheEntries: 32})
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", customers, 3, 1)); err != nil {
		return nil, err
	}
	if err := sys.AddXMLSource("tickets", ticketsXML(customers)); err != nil {
		return nil, err
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`); err != nil {
		return nil, err
	}
	return sys, nil
}

// ticketsXML builds the support-ticket document, keyed by customer id
// (workload ids run 0..n-1).
func ticketsXML(customers int) string {
	issues := []string{"login failure", "billing dispute", "slow dashboard", "export stuck", "password reset"}
	statuses := []string{"open", "closed"}
	n := customers
	if n > 25 {
		n = 25
	}
	var b strings.Builder
	b.WriteString("<tickets>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<ticket><cust>%d</cust><issue>%s</issue><status>%s</status></ticket>",
			i, issues[i%len(issues)], statuses[i%len(statuses)])
	}
	b.WriteString("</tickets>")
	return b.String()
}

// runOnce executes one query and prints the results — and, with explain,
// the per-operator EXPLAIN ANALYZE tree.
func runOnce(ctx context.Context, out io.Writer, sys *nimble.System, q string, explain bool) error {
	res, err := sys.Query(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.XML())
	if !res.Complete {
		fmt.Fprintf(out, "warning: incomplete — sources failed: %v\n", res.FailedSources)
	}
	if explain {
		printExplain(out, res)
	}
	return nil
}

// printExplain renders a result's EXPLAIN ANALYZE report.
func printExplain(out io.Writer, res *nimble.Result) {
	if res.Explain != nil {
		fmt.Fprint(out, res.Explain.Render())
	}
	fmt.Fprintf(out, "rewrites=%d fetches=%d tuples=%d operators=%d drain=%.3fms\n",
		res.Stats.Rewrites, res.Stats.Fetches, res.Stats.TuplesEmitted,
		res.Stats.OperatorsRun, float64(res.Stats.DrainNanos)/1e6)
}

func main() {
	customers := flag.Int("customers", 200, "demo dataset size")
	explainFlag := flag.Bool("explain", false, "print the per-operator EXPLAIN ANALYZE tree for each query")
	flag.Parse()

	sys, err := boot(*customers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx := context.Background()

	// One-shot mode: the query is the remaining arguments.
	if args := flag.Args(); len(args) > 0 {
		if err := runOnce(ctx, os.Stdout, sys, strings.Join(args, " "), *explainFlag); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("nimble-cli — XML-QL shell. End a query with a blank line; .help for commands.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf []string
	explain := *explainFlag
	prompt := func() {
		if len(buf) == 0 {
			fmt.Print("nimble> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if len(buf) == 0 && strings.HasPrefix(trimmed, ".") {
			if !meta(ctx, os.Stdout, sys, trimmed, &explain) {
				return
			}
			prompt()
			continue
		}
		if trimmed != "" {
			buf = append(buf, line)
			prompt()
			continue
		}
		if len(buf) == 0 {
			prompt()
			continue
		}
		q := strings.Join(buf, "\n")
		buf = nil
		if err := runOnce(ctx, os.Stdout, sys, q, explain); err != nil {
			fmt.Println("error:", err)
		}
		prompt()
	}
}

// meta handles dot-commands; it returns false to exit.
func meta(ctx context.Context, out io.Writer, sys *nimble.System, cmd string, explain *bool) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Fprintln(out, ".sources .schemas .materialize NAME .refresh [NAME] .drop NAME .explain .quit")
	case ".sources":
		for _, s := range sys.Sources() {
			fmt.Fprintln(out, " ", s)
		}
	case ".schemas":
		mat := map[string]bool{}
		for _, m := range sys.Materialized() {
			mat[m] = true
		}
		for _, s := range sys.Schemas() {
			suffix := ""
			if mat[s] {
				suffix = " (materialized)"
			}
			fmt.Fprintln(out, " ", s+suffix)
		}
	case ".materialize":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: .materialize NAME")
			break
		}
		if err := sys.Materialize(ctx, fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case ".refresh":
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		if err := sys.Refresh(ctx, name); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case ".drop":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: .drop NAME")
			break
		}
		sys.Drop(fields[1])
	case ".explain":
		*explain = !*explain
		fmt.Fprintln(out, "explain:", *explain)
	default:
		fmt.Fprintln(out, "unknown command; .help for the list")
	}
	return true
}
