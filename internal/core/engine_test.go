package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// newTestEngine assembles the canonical test deployment: a relational
// CRM database, a relational sales database, an XML support-ticket feed,
// and a mediated schema "customers" that integrates the two customer
// tables (the paper's scattered-customer scenario).
func newTestEngine(t testing.TB) (*Engine, *sources.RelationalSource) {
	t.Helper()
	return newTestEngineOver(t, testTickets, Config{})
}

const testTickets = `<tickets>
		<ticket pri="high"><cust>1</cust><subject>Engine overheats</subject></ticket>
		<ticket pri="low"><cust>2</cust><subject>Manual unclear</subject></ticket>
		<ticket pri="high"><cust>3</cust><subject>Crash on start</subject></ticket>
	</tickets>`

// newTestEngineOver is newTestEngine's deployment with the given tickets
// document, configured with cfg.
func newTestEngineOver(t testing.TB, ticketsXML string, cfg Config) (*Engine, *sources.RelationalSource) {
	t.Helper()
	crm := rdb.NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	crm.MustExec(`INSERT INTO customers VALUES
		(1, 'Ada Lovelace', 'London'),
		(2, 'Alan Turing', 'Cambridge'),
		(3, 'Grace Hopper', 'New York')`)
	crm.MustExec(`CREATE INDEX ON customers (city)`)

	sales := rdb.NewDatabase("sales")
	sales.MustExec(`CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, total FLOAT)`)
	sales.MustExec(`INSERT INTO orders VALUES
		(100, 1, 250.0), (101, 1, 75.5), (102, 2, 120.0), (103, 3, 310.25)`)

	cat := catalog.New()
	crmSrc := sources.NewRelationalSource("crmdb", crm)
	if err := cat.AddSource(crmSrc); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(sources.NewRelationalSource("salesdb", sales)); err != nil {
		t.Fatal(err)
	}
	tickets, err := sources.NewXMLSource("tickets", ticketsXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(tickets); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineViewQL("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	return New(cat, cfg), crmSrc
}

func texts(vals []xmldm.Value) []string {
	var out []string
	for _, v := range vals {
		out = append(out, xmldm.Stringify(v))
	}
	return out
}

func TestQueryDirectSource(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb", $c = "London"
		CONSTRUCT <r>$n</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Ada Lovelace" {
		t.Errorf("values = %v", texts(res.Values))
	}
	if !res.Completeness.Complete {
		t.Error("query should be complete")
	}
	// Pushdown should have produced a SQL fragment.
	if sql := pushedSQL(res.Explain); !strings.Contains(sql, "SELECT") || !strings.Contains(sql, "London") {
		t.Errorf("pushed %q\n%s", sql, res.Explain.Render())
	}
}

func TestQueryMediatedSchema(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "New York"
		CONSTRUCT <hit>$w</hit>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Grace Hopper" {
		t.Errorf("values = %v", texts(res.Values))
	}
	if res.Stats.Rewrites != 1 {
		t.Errorf("rewrites = %d", res.Stats.Rewrites)
	}
	// Unfolding + pushdown: the predicate must reach the SQL.
	if sql := pushedSQL(res.Explain); !strings.Contains(sql, "New York") {
		t.Errorf("predicate did not reach the source: %q\n%s", sql, res.Explain.Render())
	}
}

func TestQueryJoinAcrossSources(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		      <order><cust>$i</cust><total>$t</total></order> IN "salesdb",
		      $t > 200
		CONSTRUCT <big><name>$w</name><amount>$t</amount></big>
		ORDER-BY $t DESCENDING`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("values = %v", texts(res.Values))
	}
	first := res.Values[0].(*xmldm.Node)
	if first.Child("name").Text() != "Grace Hopper" {
		t.Errorf("order wrong: %s", first.String())
	}
	if first.Child("amount").Text() != "310.25" {
		t.Errorf("amount = %s", first.Child("amount").Text())
	}
}

func TestQueryJoinRelationalWithXML(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
		      <ticket pri="high"><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
		CONSTRUCT <esc><who>$n</who><what>$s</what></esc>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("values = %v", texts(res.Values))
	}
}

func TestQueryNestedGrouping(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <portfolio><owner>$n</owner>
			{ WHERE <order><cust>$i</cust><total>$t</total></order> IN "salesdb"
			  CONSTRUCT <amt>$t</amt> }
		</portfolio>
		ORDER-BY $n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("values = %d", len(res.Values))
	}
	ada := res.Values[0].(*xmldm.Node)
	if ada.Child("owner").Text() != "Ada Lovelace" {
		t.Fatalf("first portfolio = %s", ada.String())
	}
	if got := len(ada.ChildrenNamed("amt")); got != 2 {
		t.Errorf("Ada's orders = %d, want 2", got)
	}
}

func TestQueryAggregates(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <summary who=$n>
			<orders>{ count({ WHERE <order><cust>$i</cust></order> IN "salesdb" CONSTRUCT <o/> }) }</orders>
			<spend>{ sum({ WHERE <order><cust>$i</cust><total>$t</total></order> IN "salesdb" CONSTRUCT <v>$t</v> }) }</spend>
		</summary>
		ORDER-BY $n`)
	if err != nil {
		t.Fatal(err)
	}
	ada := res.Values[0].(*xmldm.Node)
	if ada.Child("orders").Text() != "2" {
		t.Errorf("orders = %q", ada.Child("orders").Text())
	}
	if ada.Child("spend").Text() != "325.5" {
		t.Errorf("spend = %q", ada.Child("spend").Text())
	}
}

func TestCorrelatedSubqueryThroughUnfolding(t *testing.T) {
	// Regression: a nested query correlated on a variable that the outer
	// query binds through an unfolded mediated schema must keep the
	// correlation after substitution (pattern positions rewrite too).
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers"
		CONSTRUCT <profile name=$w>
			<n>{ count({ WHERE <order><cust>$i</cust></order> IN "salesdb" CONSTRUCT <o/> }) }</n>
		</profile>
		ORDER-BY $w`)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, v := range res.Values {
		n := v.(*xmldm.Node)
		name, _ := n.Attr("name")
		counts[name] = n.Child("n").Text()
	}
	want := map[string]string{"Ada Lovelace": "2", "Alan Turing": "1", "Grace Hopper": "1"}
	for name, c := range want {
		if counts[name] != c {
			t.Errorf("%s orders = %q, want %q (correlation lost?)", name, counts[name], c)
		}
	}
}

// TestAggregatePredicateWaitsForItsCorrelation: a predicate whose only
// variable is the one its aggregate subquery correlates on — $i, bound
// by the tickets, the second group, while unfolding renamed the view's
// $i — is placed where $i is bound, not under the join with $i free
// (where the subquery counted every order and the predicate dropped
// every row).
func TestAggregatePredicateWaitsForItsCorrelation(t *testing.T) {
	base, _ := newTestEngine(t)
	for _, par := range parallelDegrees {
		e := New(base.Catalog(), Config{Parallelism: par})
		res, err := e.Query(context.Background(), `
			WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
			      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
			      count({ WHERE <order><cust>$i</cust></order> IN "salesdb" CONSTRUCT <o/> }) < 2
			CONSTRUCT <quiet><who>$w</who><subject>$s</subject></quiet> ORDER-BY $w`)
		if err != nil {
			t.Fatal(err)
		}
		// Ada (customer 1) has two orders; Alan and Grace one each.
		got := strings.Join(texts(res.Values), "; ")
		if want := "Alan TuringManual unclear; Grace HopperCrash on start"; got != want {
			t.Errorf("parallelism %d: answer %q, want %q\n%s", par, got, want, res.Explain.Render())
		}
	}
}

func TestPartialResults(t *testing.T) {
	e, _ := newTestEngine(t)
	// Take salesdb down.
	src, _ := e.Catalog().Source("salesdb")
	down := sources.NewDowned(src)
	cat2 := catalog.New()
	crmSrc, _ := e.Catalog().Source("crmdb")
	cat2.AddSource(crmSrc)
	cat2.AddSource(down)
	e2 := New(cat2, Config{})

	q := `WHERE <customer><name>$n</name></customer> IN "crmdb",
	      <order><total>$t</total></order> IN "salesdb"
	      CONSTRUCT <r>$n</r>`

	// Partial policy: answer from the live source, flag incomplete.
	res, err := e2.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completeness.Complete {
		t.Error("result should be flagged incomplete")
	}
	failed := res.Completeness.FailedSources()
	if len(failed) != 1 || failed[0] != "salesdb" {
		t.Errorf("failed = %v", failed)
	}
	// The join with an unavailable side yields no rows — but no error.
	if len(res.Values) != 0 {
		t.Errorf("values = %v", texts(res.Values))
	}

	// Fail policy: the query errors.
	pf := exec.PolicyFail
	if _, err := e2.QueryOpt(context.Background(), q, QueryOptions{Policy: &pf}); err == nil {
		t.Error("fail policy should surface the unavailability")
	}
}

func TestOnUnavailablePrelude(t *testing.T) {
	// §3.4's open question — "whether and how to allow the query to
	// specify behavior when data sources are unavailable" — answered by
	// the ON-UNAVAILABLE prelude.
	cat := catalog.New()
	live, _ := sources.NewXMLSource("live", `<d><row><v>1</v></row></d>`)
	cat.AddSource(live)
	dead, _ := sources.NewXMLSource("deadsrc", `<x><row><v>2</v></row></x>`)
	cat.AddSource(sources.NewDowned(dead))
	e := New(cat, Config{}) // the partial policy

	base := `WHERE <row><v>$a</v></row> IN "live", <row><v>$b</v></row> IN "deadsrc" CONSTRUCT <r>$a</r>`

	// The query's FAIL prelude overrides the engine's partial default.
	if _, err := e.Query(context.Background(), "ON-UNAVAILABLE FAIL "+base); err == nil {
		t.Error("ON-UNAVAILABLE FAIL should surface the error")
	}
	// And PARTIAL overrides a fail-default engine.
	e = New(cat, Config{FailOnUnavailable: true})
	res, err := e.Query(context.Background(), "ON-UNAVAILABLE PARTIAL "+base)
	if err != nil {
		t.Fatalf("ON-UNAVAILABLE PARTIAL: %v", err)
	}
	if res.Completeness.Complete {
		t.Error("should be flagged incomplete")
	}
	// An explicit per-call option beats the prelude.
	pp := exec.PolicyFail
	if _, err := e.QueryOpt(context.Background(), "ON-UNAVAILABLE PARTIAL "+base, QueryOptions{Policy: &pp}); err == nil {
		t.Error("per-call option should override the prelude")
	}
}

func TestPartialResultsUnionStillAnswers(t *testing.T) {
	// Two views feed one schema; one backing source is down. The live
	// half answers, flagged incomplete.
	crm := rdb.NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
	crm.MustExec(`INSERT INTO customers VALUES (1, 'Ada')`)
	cat := catalog.New()
	cat.AddSource(sources.NewRelationalSource("crmdb", crm))
	legacy, _ := sources.NewXMLSource("legacy", `<legacy><client><nm>Zed</nm></client></legacy>`)
	cat.AddSource(sources.NewDowned(legacy))
	cat.DefineViewQL("customers", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <cust><who>$n</who></cust>`)
	cat.DefineViewQL("customers", `WHERE <client><nm>$n</nm></client> IN "legacy" CONSTRUCT <cust><who>$n</who></cust>`)
	e := New(cat, Config{})
	res, err := e.Query(context.Background(), `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Ada" {
		t.Errorf("values = %v", texts(res.Values))
	}
	if res.Completeness.Complete {
		t.Error("should be incomplete")
	}
}

func TestFallbackMaterialization(t *testing.T) {
	e, _ := newTestEngine(t)
	// ELEMENT_AS cannot unfold; the schema document is materialized and
	// matched in the mediator.
	res, err := e.Query(context.Background(), `
		WHERE <cust><where>"London"</where></cust> ELEMENT_AS $e IN "customers"
		CONSTRUCT <hit>$e</hit>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Fatalf("values = %v", texts(res.Values))
	}
	hit := res.Values[0].(*xmldm.Node)
	if hit.Child("cust") == nil || hit.Child("cust").Child("who").Text() != "Ada Lovelace" {
		t.Errorf("materialized element = %s", hit.String())
	}
}

func TestHierarchicalSchemaQuery(t *testing.T) {
	e, _ := newTestEngine(t)
	// A second-level schema over "customers".
	if err := e.Catalog().DefineViewQL("vips", `
		WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "London"
		CONSTRUCT <vip><name>$w</name></vip>`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), `WHERE <vip><name>$n</name></vip> IN "vips" CONSTRUCT <r>$n</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Ada Lovelace" {
		t.Errorf("values = %v", texts(res.Values))
	}
}

func TestCustomFunctionInQuery(t *testing.T) {
	e, _ := newTestEngine(t)
	e.RegisterFunc("initials", func(args []xmldm.Value) (xmldm.Value, error) {
		parts := strings.Fields(xmldm.Stringify(args[0]))
		var sb strings.Builder
		for _, p := range parts {
			sb.WriteByte(p[0])
		}
		return xmldm.String(sb.String()), nil
	})
	res, err := e.Query(context.Background(), `
		WHERE <customer><name>$n</name></customer> IN "crmdb", initials($n) = "AL"
		CONSTRUCT <r>$n</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Ada Lovelace" {
		t.Errorf("values = %v", texts(res.Values))
	}
}

func TestResultDocument(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <r>$n</r> ORDER-BY $n`)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if doc.Name != "results" || len(doc.ChildrenNamed("r")) != 3 {
		t.Errorf("document = %s", doc.String())
	}
	// Serializes cleanly.
	if _, err := xmlparse.ParseString(xmlparse.SerializeString(doc, 0)); err != nil {
		t.Errorf("round trip: %v", err)
	}
}

func TestIncompleteResultDocumentFlagged(t *testing.T) {
	cat := catalog.New()
	legacy, _ := sources.NewXMLSource("legacy", `<l/>`)
	cat.AddSource(sources.NewDowned(legacy))
	e := New(cat, Config{})
	res, err := e.Query(context.Background(), `WHERE <x>$v</x> IN "legacy" CONSTRUCT <r>$v</r>`)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if v, ok := doc.Attr("complete"); !ok || v != "false" {
		t.Errorf("document not flagged: %s", doc.String())
	}
}

func TestPlannerOptionsAblateToSameAnswer(t *testing.T) {
	e, _ := newTestEngine(t)
	q := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "London"
	      CONSTRUCT <r>$w</r>`
	res1, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	e = New(e.Catalog(), Config{DisablePushdown: true}) // no pushdown at all
	res2, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Values) != len(res2.Values) {
		t.Fatalf("pushdown changed the answer: %d vs %d", len(res1.Values), len(res2.Values))
	}
	for i := range res1.Values {
		if xmldm.Stringify(res1.Values[i]) != xmldm.Stringify(res2.Values[i]) {
			t.Errorf("answer %d differs", i)
		}
	}
}

func TestOrderByAcrossUnion(t *testing.T) {
	cat := catalog.New()
	a, _ := sources.NewXMLSource("sa", `<d><item><v>30</v></item><item><v>10</v></item></d>`)
	b, _ := sources.NewXMLSource("sb", `<d><row><w>20</w></row></d>`)
	cat.AddSource(a)
	cat.AddSource(b)
	cat.DefineViewQL("all", `WHERE <item><v>$x</v></item> IN "sa" CONSTRUCT <u><n>$x</n></u>`)
	cat.DefineViewQL("all", `WHERE <row><w>$x</w></row> IN "sb" CONSTRUCT <u><n>$x</n></u>`)
	e := New(cat, Config{})
	res, err := e.Query(context.Background(), `
		WHERE <u><n>$n</n></u> IN "all" CONSTRUCT <r>$n</r> ORDER-BY $n`)
	if err != nil {
		t.Fatal(err)
	}
	got := texts(res.Values)
	if len(got) != 3 || got[0] != "10" || got[1] != "20" || got[2] != "30" {
		t.Errorf("global order across union = %v", got)
	}
}

func TestTagVariableQuery(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <ticket><cust>$c</cust></ticket> ELEMENT_AS $e IN "tickets",
		      <$t>$s</$t> IN $e, $t = "subject"
		CONSTRUCT <out>$s</out> ORDER-BY $s`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("values = %v", texts(res.Values))
	}
	if xmldm.Stringify(res.Values[0]) != "Crash on start" {
		t.Errorf("first = %v", res.Values[0])
	}
}

func TestContextCancellation(t *testing.T) {
	e, _ := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <r>$n</r>`); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestQueryParseError(t *testing.T) {
	e, _ := newTestEngine(t)
	if _, err := e.Query(context.Background(), `not a query`); err == nil {
		t.Error("parse error should surface")
	}
}

func TestUnknownSource(t *testing.T) {
	e, _ := newTestEngine(t)
	if _, err := e.Query(context.Background(), `WHERE <a>$x</a> IN "nosuch" CONSTRUCT <r>$x</r>`); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	e, _ := newTestEngine(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				_, err := e.Query(context.Background(), `
					WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if e.QueriesRun() != 160 {
		t.Errorf("queries run = %d", e.QueriesRun())
	}
}

func TestLocalStoreShortCircuitsSource(t *testing.T) {
	e, _ := newTestEngine(t)
	// Install a local copy of the "customers" schema document.
	doc, _, err := e.MaterializeSchema(context.Background(), "customers")
	if err != nil {
		t.Fatal(err)
	}
	meter := obs.NewRegistry()
	e.Catalog().WrapAll(func(src catalog.Source) catalog.Source { return sources.Instrument(src, meter) })
	e.SetLocalStore(
		func(source string, _ catalog.Request) (*xmldm.Node, bool) {
			if source == "customers" {
				return doc, true
			}
			return nil, false
		},
		func(schema string) bool { return schema == "customers" },
	)
	res, err := e.Query(context.Background(), `
		WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "London"
		CONSTRUCT <r>$w</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "Ada Lovelace" {
		t.Errorf("values = %v", texts(res.Values))
	}
	for _, src := range e.Catalog().SourceNames() {
		if n := meter.Histogram("nimble_source_fetch_seconds", "source", src).Count(); n != 0 {
			t.Errorf("remote fetches of %s = %d, want 0 (answered locally)", src, n)
		}
	}
	// Status marks the local answer.
	found := false
	for _, st := range res.Completeness.Statuses {
		if st.Source == "customers" && st.Local {
			found = true
		}
	}
	if !found {
		t.Errorf("local status missing: %+v", res.Completeness.Statuses)
	}
}
