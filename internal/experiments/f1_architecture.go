package experiments

import (
	"context"
	"fmt"
	"strings"

	nimble "repro"
	"repro/internal/workload"
)

// F1Architecture reproduces Figure 1 (the only figure in the paper): it
// assembles every component the architecture diagram shows — sources of
// three kinds behind wrappers, the metadata server with hierarchical
// mediated schemas, the integration engine with compiler/optimizer/
// executor, materialization, caching, cleaning functions, lenses, and
// load-balanced instances — and drives one query through the whole
// stack, reporting what each layer did.
func F1Architecture(s Scale) *Table {
	t := &Table{
		ID:     "F1",
		Title:  "Architecture walk-through (Figure 1): one query through every layer",
		Header: []string{"layer", "evidence"},
	}
	sys := nimble.New(nimble.Config{Instances: 2, CacheEntries: 16})

	// Sources: relational x2, XML feed, hierarchical directory.
	crm := workload.CustomerDB("crm", s.Customers/2, 2, 21)
	if err := sys.AddRelationalSource("crmdb", crm); err != nil {
		panic(err)
	}
	sales := workload.CustomerDB("sales", s.Customers/2, 2, 22)
	if err := sys.AddRelationalSource("salesdb", sales); err != nil {
		panic(err)
	}
	if err := sys.AddXMLSource("tickets", `<tickets>
		<ticket pri="high"><cust>1</cust><subject>escalation</subject></ticket>
	</tickets>`); err != nil {
		panic(err)
	}
	dir, err := sys.AddDirectorySource("staff", "org")
	if err != nil {
		panic(err)
	}
	dir.Put("support/lead", map[string]string{"name": "Eva"})

	// Metadata server: hierarchical mediated schemas.
	mustDefineCustomerSchema(sys)
	if err := sys.DefineSchema("goldcust", `
		WHERE <cust><who>$w</who><where>$c</where><tier>"gold"</tier></cust> IN "customers"
		CONSTRUCT <vip><name>$w</name><city>$c</city></vip>`); err != nil {
		panic(err)
	}

	// Lens front end.
	if err := sys.PublishLens(&nimble.Lens{
		Name:    "vips",
		Title:   "Gold customers",
		Queries: []string{`WHERE <vip><name>$n</name><city>$c</city></vip> IN "goldcust", $c = "${city}" CONSTRUCT <hit><name>$n</name></hit>`},
		Params:  []nimble.LensParam{{Name: "city", Required: true}},
	}); err != nil {
		panic(err)
	}

	ctx := context.Background()
	q := `WHERE <vip><name>$n</name><city>$c</city></vip> IN "goldcust", $c = "Seattle" CONSTRUCT <hit>$n</hit>`
	res, err := sys.Query(ctx, q)
	if err != nil {
		panic(err)
	}

	t.AddRow("sources", fmt.Sprintf("%d registered: %s", len(sys.Sources()), strings.Join(sys.Sources(), ", ")))
	t.AddRow("metadata server", fmt.Sprintf("schemas %s (goldcust is a view over customers — hierarchical GAV)", strings.Join(sys.Schemas(), ", ")))
	t.AddRow("mediator", fmt.Sprintf("%d rewrite(s), two unfolding levels collapsed to source patterns", res.Stats.Rewrites))
	sql := pushedSQL(res)
	t.AddRow("compiler", fmt.Sprintf("%d SQL fragment(s) generated, e.g. %q", len(sql), firstSQL(sql)))
	t.AddRow("executor", fmt.Sprintf("%d source fetches, %d tuples through the algebra", res.Stats.Fetches, res.Stats.TuplesEmitted))
	t.AddRow("results", fmt.Sprintf("%d gold customers in Seattle, complete=%v", len(res.Values), res.Complete))

	// Cache layer.
	if _, err := sys.Query(ctx, q); err != nil {
		panic(err)
	}
	t.AddRow("query cache", fmt.Sprintf("repeat query: %d hit(s)", sys.CacheStats().Hits))

	// Materialization layer.
	if err := sys.Materialize(ctx, "goldcust"); err != nil {
		panic(err)
	}
	t.AddRow("materialization", fmt.Sprintf("goldcust stored locally: %v", sys.Materialized()))

	// Lens + device formatting.
	html, err := sys.RenderLens(ctx, "vips", map[string]string{"city": "Seattle"}, nimble.DeviceWeb, "")
	if err != nil {
		panic(err)
	}
	t.AddRow("lens front end", fmt.Sprintf("web rendering %d bytes of HTML", len(html)))

	// Dynamic cleaning functions inside a query.
	res2, err := sys.Query(ctx, `
		WHERE <cust><who>$w</who></cust> IN "customers", normalize_name($w) = normalize_name(" DR. " + $w)
		CONSTRUCT <ok>$w</ok>`)
	if err != nil {
		panic(err)
	}
	t.AddRow("dynamic cleaning", fmt.Sprintf("normalize_name() evaluated in-query over %d customers", len(res2.Values)))

	// Load balancing.
	loads := sys.Cluster().Loads()
	t.AddRow("load balancing", fmt.Sprintf("%d engine instances, per-instance queries %v", sys.Instances(), loads))
	return t
}

func firstSQL(sql []string) string {
	if len(sql) == 0 {
		return "(none)"
	}
	s := sql[0]
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// pushedSQL lists the statements a query pushed to its sources, read from
// the EXPLAIN tree: each fragment scan's detail is "pushdown <source>:
// <SQL>".
func pushedSQL(res *nimble.Result) []string {
	var out []string
	res.Explain.Walk(func(n *nimble.ExplainTree) {
		if rest, ok := strings.CutPrefix(n.Detail, "pushdown "); ok {
			_, sql, _ := strings.Cut(rest, ": ")
			out = append(out, sql)
		}
	})
	return out
}
