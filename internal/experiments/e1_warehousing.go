package experiments

import (
	"context"
	"fmt"
	"time"

	nimble "repro"
	"repro/internal/sources"
	"repro/internal/workload"
)

// E1WarehousingVsVirtual reproduces the §3.3 tradeoff: "the main
// advantage of the warehousing approach is the performance of query
// processing. The main disadvantages are that the data may not be
// fresh"; virtual querying is fresh but pays "a considerable performance
// penalty because we need to contact the sources for every query"; the
// paper's compound architecture materializes views over the mediated
// schema with on-demand refresh and should get (most of) both.
//
// Workload: interleaved queries and source-side inserts at swept
// query:update ratios. Configurations: virtual, warehouse (periodic
// refresh every 50 operations), hybrid (materialized view, refreshed on
// demand when the source changed). Metrics: mean query latency over a
// simulated 8 ms/request network (a WAN-ish round trip; at LAN
// latencies local pattern matching over a large materialized document
// rivals the pushdown path — a crossover EXPERIMENTS.md discusses), and
// the fraction of queries that returned stale answers.
func E1WarehousingVsVirtual(s Scale) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Warehousing vs virtual vs hybrid (latency / freshness)",
		Header: []string{"q:u ratio", "config", "mean latency (ms)", "stale answers", "source fetches"},
	}
	ratios := []struct {
		name    string
		queries int // queries per update
	}{
		{"1:1", 1}, {"5:1", 5}, {"20:1", 20},
	}
	const latency = 8 * time.Millisecond

	for _, ratio := range ratios {
		for _, config := range []string{"virtual", "warehouse", "hybrid"} {
			sys := nimble.New(nimble.Config{})
			db := workload.CustomerDB("crm", s.Customers, 2, 1)
			rel := sources.NewRelationalSource("crmdb", db)
			sim := sources.NewNetworkSim(rel, latency, 1.0, 1)
			if err := sys.AddSource(sim); err != nil {
				panic(err)
			}
			mustDefineCustomerSchema(sys)
			ctx := context.Background()

			if config != "virtual" {
				if err := sys.Materialize(ctx, "customers"); err != nil {
					panic(err)
				}
			}

			liveCount := func() int {
				return len(db.MustExec(`SELECT id FROM customers WHERE city = 'Seattle'`).Rows)
			}
			query := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <hit>$w</hit>`

			nextID := 1_000_000
			dirty := false
			ops := 0
			stale := 0
			queries := 0
			var total time.Duration
			for queries < s.Queries {
				// Update phase: one insert per `ratio.queries` queries.
				if ops%(ratio.queries+1) == 0 {
					db.MustExec(fmt.Sprintf(`INSERT INTO customers VALUES (%d, 'New Customer', 'Seattle', 'bronze')`, nextID))
					nextID++
					dirty = true
					ops++
					continue
				}
				ops++
				// Periodic refresh for the warehouse config.
				if config == "warehouse" && ops%50 == 0 {
					if err := sys.Refresh(ctx, "customers"); err != nil {
						panic(err)
					}
					dirty = false
				}
				// On-demand refresh for the hybrid config: the paper's
				// "refreshed on demand" — the system knows the source
				// changed and refreshes before answering.
				if config == "hybrid" && dirty {
					if err := sys.Refresh(ctx, "customers"); err != nil {
						panic(err)
					}
					dirty = false
				}
				start := time.Now()
				res, err := sys.Query(ctx, query)
				if err != nil {
					panic(err)
				}
				total += time.Since(start)
				queries++
				if len(res.Values) != liveCount() {
					stale++
				}
			}
			calls, _, _ := sim.Stats()
			t.AddRow(ratio.name, config,
				float64(total.Microseconds())/float64(queries)/1000,
				fmt.Sprintf("%d/%d", stale, queries),
				calls)
		}
	}
	t.Notes = append(t.Notes,
		"virtual: fresh but pays the network on every query",
		"warehouse: fast but stale between periodic refreshes",
		"hybrid: materialized view over the mediated schema, refreshed on demand (§3.3)")
	return t
}

func mustDefineCustomerSchema(sys *nimble.System) {
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`); err != nil {
		panic(err)
	}
}
