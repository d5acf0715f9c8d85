package opt

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// bindEnv is a planner over a customers table of rows rows — id the
// indexed primary key, city indexed, name not, score a FLOAT with an
// index — and a tickets feed naming customers 1, "02" and 7 (and a city,
// a name and a score to join on instead). wrap, if set, wraps the
// relational source before it is registered.
func bindEnv(t *testing.T, rows int, wrap func(catalog.Source) catalog.Source) (*Planner, *fakeAccess) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, score FLOAT)`)
	db.MustExec(`CREATE INDEX ON customers (city)`)
	db.MustExec(`CREATE INDEX ON customers (score)`)
	for i := 0; i < rows; i++ {
		row := rdb.Row{xmldm.Int(int64(i)), xmldm.String(fmt.Sprintf("N%d", i)), xmldm.String(fmt.Sprintf("C%d", i%5)), xmldm.Float(float64(i) / 2)}
		if err := db.Insert("customers", row); err != nil {
			t.Fatal(err)
		}
	}
	var crm catalog.Source = sources.NewRelationalSource("crmdb", db)
	if wrap != nil {
		crm = wrap(crm)
	}
	const tickets = `<tickets><ticket><cust>1</cust><city>C1</city><who>N1</who><score>0.5</score></ticket>` +
		`<ticket><cust>02</cust><city>C2</city><who>N2</who><score>1</score></ticket>` +
		`<ticket><cust>7</cust><city>C2</city><who>N7</who><score>3.5</score></ticket>` +
		`<ticket><cust>1</cust><city>C1</city><who>N1</who><score>0.5</score></ticket></tickets>`
	feed, err := sources.NewXMLSource("tickets", tickets)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, src := range []catalog.Source{crm, feed} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	access := &fakeAccess{docs: map[string]string{"tickets": tickets}, db: map[string]*rdb.Database{"crmdb": db}}
	return New(cat, access), access
}

const bindJoinQL = `
	WHERE <ticket><cust>$i</cust></ticket> IN "tickets",
	      <customer><id>$i</id><name>$n</name></customer> IN "crmdb"
	CONSTRUCT <r>$n</r>`

func names(t *testing.T, plan *Plan) string {
	t.Helper()
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range bindings {
		n, _ := b.Get("n")
		out = append(out, xmldm.Stringify(n))
	}
	return strings.Join(out, " ")
}

// TestPlanBindJoinOnIndexedKey: a join whose right side is one fragment
// over a table of bindMinRows rows, keyed on its indexed primary key, is
// a bind join. The fragment leaves the prefetch list, the plan says so,
// and running it sends the fragment with the tickets' three distinct
// customer ids as the IN list — never the whole table — for the answer
// the unbound plan gives.
func TestPlanBindJoinOnIndexedKey(t *testing.T) {
	for _, wrap := range []func(catalog.Source) catalog.Source{
		nil,
		func(s catalog.Source) catalog.Source { return sources.NewNetworkSim(s, 0, 1, 1) },
	} {
		p, access := bindEnv(t, bindMinRows, wrap)
		plan, err := p.Plan(rewriteOf(t, bindJoinQL), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		join, ok := plan.Root.(*algebra.HashJoin)
		if !ok || join.Bind == nil {
			t.Fatalf("root %T bind=%v, want a bind join: %v", plan.Root, ok && join.Bind != nil, planOps(plan))
		}
		if join.Bind.Key != "i" || join.Bind.Rows != bindMinRows || join.Bind.MaxKeys != bindMinRows/bindRowsPerKey {
			t.Errorf("bind = %+v", *join.Bind)
		}
		if len(plan.Fetches) != 1 || plan.Fetches[0].Source != "tickets" {
			t.Errorf("fetches = %+v, want only the tickets feed (the bound fragment cannot be prefetched)", plan.Fetches)
		}
		if ops := planOps(plan); ops[0] != "HashJoin [on $i bind=?/64]" ||
			!slices.Contains(ops, "FuncScan [pushdown crmdb: SELECT id, name FROM customers WHERE id IN (…0 keys)]") {
			t.Errorf("plan = %v", ops)
		}
		// planOps described the plan as it stands; run a fresh one.
		if plan, err = p.Plan(rewriteOf(t, bindJoinQL), nil, nil); err != nil {
			t.Fatal(err)
		}
		_, node := algebra.Instrument(plan.Root)
		if got := names(t, plan); got != "N1 N2 N7 N1" {
			t.Errorf("answer = %q", got)
		}
		var sent []string
		for i, req := range access.requests {
			if access.srcNames[i] == "crmdb" {
				sent = append(sent, req.Native)
			}
		}
		if want := []string{`SELECT id, name FROM customers WHERE id IN ('1', '02', '7')`}; !slices.Equal(sent, want) {
			t.Errorf("crmdb was sent %q, want %q", sent, want)
		}
		if ops := explainOps(node); ops[0] != "HashJoin [on $i bind=3/64]" ||
			!slices.Contains(ops, "FuncScan [pushdown crmdb: SELECT id, name FROM customers WHERE id IN (…3 keys)]") {
			t.Errorf("plan after the run = %v", ops)
		}
	}
}

// TestPlanBindJoinKeepsFragmentPredicates: the key list joins the
// conjuncts the fragment already pushed, and a key pair (not only a
// natural variable) can carry it.
func TestPlanBindJoinKeepsFragmentPredicates(t *testing.T) {
	p, access := bindEnv(t, 100, nil)
	p.Opts.ReorderJoins = false // the fragment's own predicates would move it to the left
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <ticket><cust>$c</cust></ticket> IN "tickets",
		      <customer><id>$i</id><name>$n</name><city>$y</city></customer> IN "crmdb",
		      $i = $c, $y = "C2", $i < 50
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, plan); got != "N2 N7" {
		t.Errorf("answer = %q", got)
	}
	want := `SELECT city, id, name FROM customers WHERE (city = 'C2') AND (id < 50) AND id IN ('1', '02', '7')`
	if got := access.requests[len(access.requests)-1].Native; got != want {
		t.Errorf("crmdb was sent\n%s\nwant\n%s", got, want)
	}
}

// statlessSource is a relational source that reports no statistics.
type statlessSource struct{ catalog.Relational }

// TestPlanBindJoinNeedsWhatItCanObserve: each condition of the candidate
// rule, missing alone, leaves the join unbound and the fragment in the
// prefetch list.
func TestPlanBindJoinNeedsWhatItCanObserve(t *testing.T) {
	outer := xmldm.NewTuple(xmldm.Field{Name: "i", Value: xmldm.String("7")})
	for _, tc := range []struct {
		name  string
		rows  int
		wrap  func(catalog.Source) catalog.Source
		query string
		tweak func(*Planner)
		input algebra.Operator
		bound bool
	}{
		{name: "all conditions met", rows: 100, query: bindJoinQL, bound: true},
		{name: "table under bindMinRows", rows: bindMinRows - 1, query: bindJoinQL},
		{name: "join column not indexed", rows: 100, query: `
			WHERE <ticket><who>$n</who></ticket> IN "tickets",
			      <customer><name>$n</name></customer> IN "crmdb"
			CONSTRUCT <r>$n</r>`},
		{name: "indexed FLOAT column", rows: 100, query: `
			WHERE <ticket><score>$s</score></ticket> IN "tickets",
			      <customer><score>$s</score><name>$n</name></customer> IN "crmdb"
			CONSTRUCT <r>$n</r>`, bound: true},
		{name: "selection pushdown switched off", rows: 100, query: bindJoinQL,
			tweak: func(p *Planner) { p.Opts.PushSelections = false }},
		{name: "source reports no statistics", rows: 100, query: bindJoinQL,
			wrap: func(s catalog.Source) catalog.Source { return statlessSource{s.(catalog.Relational)} }},
		{name: "correlated subquery", rows: 100, query: `
			WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r>$n</r>`,
			input: &algebra.TupleScan{Tuples: []algebra.Binding{outer}}},
		{name: "relational side on the left", rows: 100, query: `
			WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
			      <ticket><cust>$i</cust></ticket> IN "tickets"
			CONSTRUCT <r>$n</r>`, tweak: func(p *Planner) { p.Opts.ReorderJoins = false }},
	} {
		p, _ := bindEnv(t, tc.rows, tc.wrap)
		if tc.tweak != nil {
			tc.tweak(p)
		}
		var preBound []string
		if tc.input != nil {
			preBound = []string{"i"}
		}
		plan, err := p.Plan(rewriteOf(t, tc.query), preBound, tc.input)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var j *algebra.HashJoin
		for op := plan.Root; j == nil; {
			switch x := op.(type) {
			case *algebra.HashJoin:
				j = x
			case *algebra.Select:
				op = x.Input
			default:
				t.Fatalf("%s: no join in %v", tc.name, planOps(plan))
			}
		}
		if (j.Bind != nil) != tc.bound {
			t.Errorf("%s: bind=%v, want %v: %v", tc.name, j.Bind != nil, tc.bound, planOps(plan))
		}
		prefetched := slices.ContainsFunc(plan.Fetches, func(f FetchSpec) bool { return f.Source == "crmdb" })
		if tc.name != "selection pushdown switched off" && prefetched == tc.bound {
			t.Errorf("%s: crmdb prefetched=%v with bind=%v: %+v", tc.name, prefetched, tc.bound, plan.Fetches)
		}
		if _, err := algebra.Drain(&algebra.Context{}, plan.Root); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestPlanBindJoinThroughTheSource: the same plan against the real
// source wrapper, not the canned access, so the IN list runs through
// RelationalSource.Fetch and the index: three keys bring three rows.
func TestPlanBindJoinThroughTheSource(t *testing.T) {
	p, _ := bindEnv(t, 200, nil)
	src, err := p.Cat.Source("crmdb")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	p.Access = accessFunc(func(source string, req catalog.Request) ([]xmldm.Value, error) {
		if source != "crmdb" {
			return (&fakeAccess{docs: map[string]string{"tickets": `<tickets><ticket><cust>1</cust></ticket><ticket><cust>02</cust></ticket><ticket><cust>7</cust></ticket><ticket><cust>400</cust></ticket></tickets>`}}).Roots(source, req)
		}
		doc, cost, err := src.Fetch(context.Background(), req)
		rows += cost.RowsReturned
		return []xmldm.Value{doc}, err
	})
	plan, err := p.Plan(rewriteOf(t, bindJoinQL), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, plan); got != "N1 N2 N7" {
		t.Errorf("answer = %q", got)
	}
	if rows != 3 {
		t.Errorf("crmdb returned %d rows, want the 3 the four keys find", rows)
	}
}

type accessFunc func(source string, req catalog.Request) ([]xmldm.Value, error)

func (f accessFunc) Roots(source string, req catalog.Request) ([]xmldm.Value, error) {
	return f(source, req)
}
