package opt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mediator"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// fakeAccess serves fetches from canned documents and records requests.
type fakeAccess struct {
	docs     map[string]string // source -> XML (used when no SQL)
	db       map[string]*rdb.Database
	requests []catalog.Request
	srcNames []string
}

func (f *fakeAccess) Roots(source string, req catalog.Request) ([]xmldm.Value, error) {
	f.requests = append(f.requests, req)
	f.srcNames = append(f.srcNames, source)
	if db, ok := f.db[source]; ok && req.Native != "" {
		res, err := db.Exec(req.Native)
		if err != nil {
			return nil, err
		}
		root := &xmldm.Node{Name: source}
		for _, row := range res.Rows {
			r := &xmldm.Node{Name: "customer", Parent: root}
			for i, col := range res.Columns {
				c := &xmldm.Node{Name: col, Parent: r}
				c.Children = append(c.Children, xmldm.String(xmldm.Stringify(row[res.Pos(i)])))
				r.Children = append(r.Children, c)
			}
			root.Children = append(root.Children, r)
		}
		xmldm.Finalize(root)
		return []xmldm.Value{root}, nil
	}
	doc, err := xmlparse.ParseString(f.docs[source])
	if err != nil {
		return nil, err
	}
	return []xmldm.Value{doc}, nil
}

func newPlannerEnv(t *testing.T) (*Planner, *fakeAccess) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1,'Ada','London'), (2,'Alan','Cambridge')`)
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("crmdb", db)); err != nil {
		t.Fatal(err)
	}
	xmlSrc, _ := sources.NewXMLSource("feed", `<feed><entry><v>1</v></entry><entry><v>2</v></entry></feed>`)
	if err := cat.AddSource(xmlSrc); err != nil {
		t.Fatal(err)
	}
	access := &fakeAccess{
		docs: map[string]string{"feed": `<feed><entry><v>1</v></entry><entry><v>2</v></entry></feed>`},
		db:   map[string]*rdb.Database{"crmdb": db},
	}
	return New(cat, access), access
}

func rewriteOf(t *testing.T, q string) mediator.Rewrite {
	t.Helper()
	return mediator.Rewrite{Query: xmlql.MustParse(q)}
}

func TestPlanPushesToRelationalSource(t *testing.T) {
	p, access := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb", $c = "London"
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Fetches) != 1 || !strings.Contains(plan.Fetches[0].Req.Native, "WHERE") {
		t.Fatalf("fetches = %+v", plan.Fetches)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	if v, _ := bindings[0].Get("n"); xmldm.Stringify(v) != "Ada" {
		t.Errorf("n = %v", v)
	}
	if len(access.requests) != 1 || access.requests[0].Native == "" {
		t.Errorf("requests = %+v", access.requests)
	}
}

func TestPlanDisabledPushdownFallsBack(t *testing.T) {
	p, _ := newPlannerEnv(t)
	p.Opts = Options{} // everything off
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb", $c = "London"
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pushdown of selections is off, but fragment compilation still
	// produces a (predicate-free) SQL scan; the Select runs above it.
	if ops := planOps(plan); !slices.Contains(ops, "FuncScan [pushdown crmdb: SELECT * FROM customers]") {
		t.Errorf("predicate pushed despite options: %v", ops)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Fatalf("bindings = %d", len(bindings))
	}
}

func TestPlanXMLSourceUsesMatch(t *testing.T) {
	p, access := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <entry><v>$v</v></entry> IN "feed" CONSTRUCT <r>$v</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops := planOps(plan); !slices.Contains(ops, "Match [fetch feed <entry> index entry]") {
		t.Errorf("plan = %v", ops)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	if access.requests[0].Native != "" {
		t.Error("XML source should receive a whole-document request")
	}
}

func TestPlanJoinsAcrossSources(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><id>$v</id><name>$n</name></customer> IN "crmdb",
		      <entry><v>$v</v></entry> IN "feed"
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// ids 1,2 join with feed values 1,2.
	if len(bindings) != 2 {
		t.Fatalf("joined = %d", len(bindings))
	}
	if len(plan.Sources) != 2 {
		t.Errorf("sources = %v", plan.Sources)
	}
}

func TestPlanVariableGroupChains(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <entry>$e</entry> ELEMENT_AS $x IN "feed",
		      <v>$v</v> IN $x
		CONSTRUCT <r>$v</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d", len(bindings))
	}
}

func TestPlanVariableGroupWithoutBinderFails(t *testing.T) {
	p, _ := newPlannerEnv(t)
	_, err := p.Plan(rewriteOf(t, `WHERE <v>$v</v> IN $nowhere CONSTRUCT <r>$v</r>`), nil, nil)
	if err == nil {
		t.Error("pattern over unbound variable should fail to plan")
	}
}

func TestPlanPreBoundInput(t *testing.T) {
	p, _ := newPlannerEnv(t)
	outer := xmldm.NewTuple(xmldm.Field{Name: "c", Value: xmldm.String("London")})
	input := &algebra.TupleScan{Tuples: []algebra.Binding{outer}}
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <r>$n</r>`), []string{"c"}, input)
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// The outer binding's $c joins against the pattern's city.
	if len(bindings) != 1 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	if v, _ := bindings[0].Get("n"); xmldm.Stringify(v) != "Ada" {
		t.Errorf("n = %v", v)
	}
}

func TestPlanOrderPushdown(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <r>$n</r> ORDER-BY $n DESCENDING`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops := planOps(plan); !plan.OrderPushed || !slices.Contains(ops, "FuncScan [pushdown crmdb: SELECT name FROM customers ORDER BY name DESC]") {
		t.Errorf("order pushed=%v: %v", plan.OrderPushed, ops)
	}
	// Multi-group plans must not claim pushed order.
	plan2, err := p.Plan(rewriteOf(t, `
		WHERE <customer><name>$n</name></customer> IN "crmdb",
		      <entry><v>$v</v></entry> IN "feed"
		CONSTRUCT <r>$n</r> ORDER-BY $n`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.OrderPushed {
		t.Error("multi-fragment plan claimed pushed order")
	}
}

func TestPlanUnknownSource(t *testing.T) {
	p, _ := newPlannerEnv(t)
	if _, err := p.Plan(rewriteOf(t, `WHERE <a>$x</a> IN "ghost" CONSTRUCT <r>$x</r>`), nil, nil); err == nil {
		t.Error("unknown source should fail planning")
	}
}

func TestSourceAsUnwraps(t *testing.T) {
	db := rdb.NewDatabase("d")
	db.MustExec(`CREATE TABLE t (a INT)`)
	rel := sources.NewRelationalSource("s", db)
	wrapped := sources.NewNetworkSim(rel, 0, 1, 1)
	if _, ok := sourceAs[catalog.Relational](wrapped); !ok {
		t.Error("network sim should unwrap to relational")
	}
	if st, ok := sourceAs[catalog.Stats](wrapped); !ok {
		t.Error("network sim should unwrap to the statistics")
	} else if ts, ok := st.TableStats("t"); !ok || ts.Rows != 0 {
		t.Errorf("TableStats(t) = %+v, %v", ts, ok)
	}
	xmlSrc, _ := sources.NewXMLSource("x", `<x/>`)
	if _, ok := sourceAs[catalog.Relational](xmlSrc); ok {
		t.Error("XML source is not relational")
	}
}

func TestReorderGroupsSelectiveFirst(t *testing.T) {
	q := xmlql.MustParse(`
		WHERE <entry><v>$v</v></entry> IN "feed",
		      <customer><name>$n</name><city>$c</city></customer> IN "crmdb",
		      $c = "London"
		CONSTRUCT <r>$n</r>`)
	d := mediator.Decompose(q)
	out := reorderGroups(d.Groups, d.Predicates)
	if out[0].Source != "crmdb" {
		t.Errorf("selective group (covers the predicate) should come first, got %s", out[0].Source)
	}
	// Variable groups follow their binder even when the binder reorders.
	q2 := xmlql.MustParse(`
		WHERE <entry>$x</entry> ELEMENT_AS $e IN "feed",
		      <v>$v</v> IN $e,
		      <customer><city>"London"</city><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <r>$n</r>`)
	d2 := mediator.Decompose(q2)
	out2 := reorderGroups(d2.Groups, d2.Predicates)
	binderPos, varPos := -1, -1
	for i, g := range out2 {
		if g.Source == "feed" {
			binderPos = i
		}
		if g.Var == "e" {
			varPos = i
		}
	}
	if binderPos < 0 || varPos < 0 || varPos < binderPos {
		t.Errorf("var group before binder: order %v, %v", binderPos, varPos)
	}
}

func TestReorderDisabledKeepsQueryOrder(t *testing.T) {
	p, _ := newPlannerEnv(t)
	p.Opts.ReorderJoins = false
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <entry><v>$v</v></entry> IN "feed",
		      <customer><id>$v</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sources[0] != "feed" {
		t.Errorf("query order not kept: %v", plan.Sources)
	}
	// Same answers either way.
	p.Opts.ReorderJoins = true
	plan2, err := p.Plan(rewriteOf(t, `
		WHERE <entry><v>$v</v></entry> IN "feed",
		      <customer><id>$v</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := algebra.Drain(&algebra.Context{}, plan2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Errorf("reordering changed the answer: %d vs %d", len(b1), len(b2))
	}
}

func TestPlanPredicateWithUnboundVarStillTotal(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <entry><v>$v</v></entry> IN "feed", $ghost = 1
		CONSTRUCT <r>$v</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Null-comparison semantics: the predicate is false, zero rows, no
	// error.
	if len(bindings) != 0 {
		t.Errorf("bindings = %d", len(bindings))
	}
}

// newJoinEnv is newPlannerEnv plus two XML sources shaped like the
// benchmark's federated join: tickets that name a customer id and an
// owner, and the staff the owners are.
func newJoinEnv(t *testing.T) *Planner {
	t.Helper()
	p, access := newPlannerEnv(t)
	for name, doc := range map[string]string{
		"tickets": `<tickets><ticket><cust>1</cust><owner>s1</owner><alt>9</alt></ticket>` +
			`<ticket><cust>02</cust><owner>s2</owner><alt>2</alt></ticket>` +
			`<ticket><cust>7</cust><owner>s1</owner><alt>7</alt></ticket></tickets>`,
		"staff": `<staff><p><sid>s1</sid><who>Grace</who></p><p><sid>s2</sid><who>Edsger</who></p></staff>`,
	} {
		src, err := sources.NewXMLSource(name, doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
		access.docs[name] = doc
	}
	return p
}

// planOps flattens a plan that has not run to its EXPLAIN nodes, "Op
// [detail]" each. It instruments the plan in place, so the nodes are
// those of its first call.
func planOps(plan *Plan) []string {
	_, node := algebra.Instrument(plan.Root)
	return explainOps(node)
}

// explainOps finalizes an instrumented plan's EXPLAIN tree and flattens
// it as planOps does.
func explainOps(node *algebra.ExplainNode) []string {
	node.Finalize()
	var out []string
	node.Walk(func(n *algebra.ExplainNode) {
		out = append(out, strings.TrimSpace(n.Op+" ["+n.Detail+"]"))
	})
	return out
}

func countPrefix(ops []string, prefix string) int {
	n := 0
	for _, op := range ops {
		if strings.HasPrefix(op, prefix) {
			n++
		}
	}
	return n
}

// TestPlanJoinKeyFromSpanningEquality: an equality of two variables, one
// bound by each side of a join, leaves pending exactly once — as the
// join's key pair, left name first whichever way the query wrote it —
// and no Select is planned for it.
func TestPlanJoinKeyFromSpanningEquality(t *testing.T) {
	for _, pred := range []string{`$i = $c`, `$c = $i`} {
		p := newJoinEnv(t)
		p.Opts.ReorderJoins = false
		plan, err := p.Plan(rewriteOf(t, `
			WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
			      <ticket><cust>$c</cust><owner>$o</owner></ticket> IN "tickets",
			      `+pred+`
			CONSTRUCT <r>$n</r>`), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		join, ok := plan.Root.(*algebra.HashJoin)
		if !ok {
			t.Fatalf("%s: root is %T, want the join itself (no Select above it): %v", pred, plan.Root, planOps(plan))
		}
		if len(join.On) != 0 || len(join.Pairs) != 1 || join.Pairs[0] != (algebra.KeyPair{Left: "i", Right: "c"}) {
			t.Errorf("%s: join keys on=%v pairs=%v, want the one pair i=c", pred, join.On, join.Pairs)
		}
		if ops := planOps(plan); countPrefix(ops, "Select") != 0 || ops[0] != "HashJoin [on $i=$c]" ||
			!slices.Contains(ops, "Match [fetch tickets <ticket> index ticket]") {
			t.Errorf("%s: plan = %v", pred, ops)
		}
		bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		// Customer 1 has ticket "1"; customer 2 has ticket "02" (weak
		// typing, as the Select compared them); ticket 7 has no customer.
		if len(bindings) != 2 {
			t.Errorf("%s: bindings = %v, want 2", pred, bindings)
		}
	}
}

// TestPlanNonKeyPredicatesStaySelects: only $x = $y across the two sides
// is a key. Everything else is filtered by a Select exactly as before.
func TestPlanNonKeyPredicatesStaySelects(t *testing.T) {
	for _, tc := range []struct{ pred, rendered string }{
		{`$c = $a`, `($c = $a)`},                           // both bound by the ticket side
		{`$i = $c + 1`, `($i = ($c + 1))`},                 // an expression operand
		{`$i != $c`, `($i != $c)`},                         // not an equality
		{`$c = "7"`, `($c = "7")`},                         // a literal
		{`$i = $c OR $i = $a`, `(($i = $c) OR ($i = $a))`}, // a disjunction of equalities
	} {
		p := newJoinEnv(t)
		plan, err := p.Plan(rewriteOf(t, `
			WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
			      <ticket><cust>$c</cust><alt>$a</alt></ticket> IN "tickets",
			      `+tc.pred+`
			CONSTRUCT <r>$n</r>`), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ops := planOps(plan)
		if countPrefix(ops, "HashJoin []") != 1 || countPrefix(ops, "Select ["+tc.rendered+"]") != 1 {
			t.Errorf("%s: plan = %v, want a key-less HashJoin and Select [%s]", tc.pred, ops, tc.rendered)
		}
		if _, err := algebra.Drain(&algebra.Context{}, plan.Root); err != nil {
			t.Errorf("%s: %v", tc.pred, err)
		}
	}
}

// TestPlanJoinKeyPreBoundVariable: a variable the correlated outer
// binding carries counts as bound by the left side of the first join.
func TestPlanJoinKeyPreBoundVariable(t *testing.T) {
	p := newJoinEnv(t)
	outer := xmldm.NewTuple(xmldm.Field{Name: "want", Value: xmldm.Int(7)})
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <ticket><cust>$c</cust><owner>$o</owner></ticket> IN "tickets", $c = $want
		CONSTRUCT <r>$o</r>`), []string{"want"}, &algebra.TupleScan{Tuples: []algebra.Binding{outer}})
	if err != nil {
		t.Fatal(err)
	}
	if ops := planOps(plan); ops[0] != "HashJoin [on $want=$c]" || countPrefix(ops, "Select") != 0 {
		t.Errorf("plan = %v", ops)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Fatalf("bindings = %v, want the one ticket of customer 7", bindings)
	}
	if o, _ := bindings[0].Get("o"); xmldm.Stringify(o) != "s1" {
		t.Errorf("o = %v", o)
	}
}

// TestPlanThreeSourceChainIsTwoKeyedJoins: the benchmark's fed-join
// shape — a relational side whose variable the unfolder renamed, tickets
// that name it, staff joined on a shared variable — plans two keyed
// joins and nothing to filter them.
func TestPlanThreeSourceChainIsTwoKeyedJoins(t *testing.T) {
	for _, degree := range []int{1, 4} {
		p := newJoinEnv(t)
		p.Opts.Parallelism = degree
		plan, err := p.Plan(rewriteOf(t, `
			WHERE <customer><id>$_u1_i</id><name>$_u1_n</name></customer> IN "crmdb",
			      $i = $_u1_i,
			      <ticket><cust>$i</cust><owner>$o</owner></ticket> IN "tickets",
			      <p><sid>$o</sid><who>$w</who></p> IN "staff"
			CONSTRUCT <r><c>$_u1_n</c><a>$w</a></r>`), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ops := planOps(plan)
		workers := ""
		if degree > 1 {
			workers = "want=4 " // the stamped request, before any grant
		}
		if countPrefix(ops, "HashJoin") != 2 || countPrefix(ops, "Select") != 0 ||
			countPrefix(ops, "HashJoin ["+workers+"on $_u1_i=$i]") != 1 || countPrefix(ops, "HashJoin ["+workers+"on $o]") != 1 {
			t.Errorf("degree %d: plan = %v, want one join on $_u1_i=$i, one on $o, no Select", degree, ops)
		}
		bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range bindings {
			c, _ := b.Get("_u1_n")
			w, _ := b.Get("w")
			got = append(got, xmldm.Stringify(c)+"/"+xmldm.Stringify(w))
		}
		if strings.Join(got, " ") != "Ada/Grace Alan/Edsger" {
			t.Errorf("degree %d: answer = %v", degree, got)
		}
	}
}
