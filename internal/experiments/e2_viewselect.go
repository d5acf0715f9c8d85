package experiments

import (
	"context"
	"strings"

	nimble "repro"
	"repro/internal/matview"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/workload"
	"repro/internal/xmlql"
)

// E2ViewSelection exercises §3.3's research challenge: "algorithms that
// decide which data (and over which sources) need to be materialized ...
// we may need to adjust the set of materialized views over time
// depending on the query load". Two mediated schemas back on two remote
// sources; the query mix starts east-heavy and shifts west-heavy halfway
// through. Policies: materialize nothing, materialize everything, and
// the greedy adaptive advisor under a budget that fits only one schema.
// Metric: remote fetches (what materialization is meant to save) and
// bytes moved.
func E2ViewSelection(s Scale) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Adaptive view selection under a shifting query load",
		Header: []string{"policy", "remote fetches", "bytes moved", "store changes"},
	}
	for _, policy := range []string{"none", "all", "advisor"} {
		sys := nimble.New(nimble.Config{})
		east := workload.CustomerDB("east", s.Customers/2, 2, 1)
		west := workload.CustomerDB("west", s.Customers/2, 2, 2)
		simEast := sources.NewNetworkSim(sources.NewRelationalSource("eastdb", east), 0, 1.0, 1)
		simWest := sources.NewNetworkSim(sources.NewRelationalSource("westdb", west), 0, 1.0, 2)
		if err := sys.AddSource(simEast); err != nil {
			panic(err)
		}
		if err := sys.AddSource(simWest); err != nil {
			panic(err)
		}
		// Every remote fetch, the materializations' included, is metered
		// at the source.
		meter := obs.NewRegistry()
		sys.WrapSources(func(src nimble.Source) nimble.Source { return sources.Instrument(src, meter) })
		for schema, src := range map[string]string{"eastcust": "eastdb", "westcust": "westdb"} {
			if err := sys.DefineSchema(schema, `
				WHERE <customer><name>$n</name><city>$c</city></customer> IN "`+src+`"
				CONSTRUCT <cust><who>$n</who><where>$c</where></cust>`); err != nil {
				panic(err)
			}
		}
		ctx := context.Background()
		advisor := matview.NewAdvisor(sys.Engine(0).Catalog())
		mgr := sys.Views()

		changes := 0
		switch policy {
		case "all":
			for _, schema := range []string{"eastcust", "westcust"} {
				if err := sys.Materialize(ctx, schema); err != nil {
					panic(err)
				}
				changes++
			}
		}

		eastQ := `WHERE <cust><who>$w</who></cust> IN "eastcust" CONSTRUCT <r>$w</r>`
		westQ := `WHERE <cust><who>$w</who></cust> IN "westcust" CONSTRUCT <r>$w</r>`
		half := s.Queries / 2
		// The schemas' sizes are comparable; the budget fits one.
		budget := s.Customers * 6

		for i := 0; i < s.Queries; i++ {
			// Shifted mix: 90/10 east in the first half, 10/90 after.
			q := eastQ
			hot := i%10 != 0
			if (i < half) != hot {
				q = westQ
			}
			if policy == "advisor" {
				parsed := xmlql.MustParse(q)
				advisor.NoteQuery(parsed)
				// Re-decide every 20 queries (the advisor's window).
				if i%20 == 19 {
					advisor.EndWindow()
					n, err := advisor.Apply(ctx, mgr, advisor.Decide(budget))
					if err != nil {
						panic(err)
					}
					changes += n
					for _, e := range mgr.Entries() {
						advisor.NoteSize(e.Schema, e.Elements)
					}
				}
			}
			res, err := sys.Query(ctx, q)
			if err != nil {
				panic(err)
			}
			if policy == "advisor" {
				for _, st := range res.Completeness.Statuses {
					if !st.Local {
						for _, dep := range []string{"eastcust", "westcust"} {
							if containsFold(q, dep) {
								advisor.NoteCost(dep, st.Bytes)
							}
						}
					}
				}
			}
		}
		var fetches, bytes int64
		for _, src := range []string{"eastdb", "westdb"} {
			fetches += meter.Histogram("nimble_source_fetch_seconds", "source", src).Count()
			bytes += meter.Counter("nimble_source_bytes_total", "source", src).Value()
		}
		t.AddRow(policy, fetches, bytes, changes)
	}
	t.Notes = append(t.Notes,
		"budget fits one schema; the advisor should follow the hot schema across the shift",
		"'all' avoids remote fetches entirely but needs double the storage budget")
	return t
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}
