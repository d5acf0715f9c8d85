package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// pushedCase is a predicate over items' $i, $q, $t, $s, $n, $o, $d and
// $k, the ids it holds for ("error" when the query fails), and the SQL
// conjunct it is pushed as. A pred that starts ORDER-BY is the query's
// ORDER-BY clause instead, and the ids are then in answer order.
type pushedCase struct{ pred, want, sql string }

// requirePushedAsMediator runs each case's query on an engine that
// pushes predicates into the relational source and on one that does not,
// and fails unless both answer the case's rows (in any order, but for an
// ORDER-BY case: an index may answer in its own) and the first plan's
// fragment scan carries the case's SQL. It runs every case twice: over
// the table with its primary key only, and over a twin with an index on
// every column.
// The table holds NULL cells in a VARCHAR, a DATE and an INT column, and
// a BOOL column.
func requirePushedAsMediator(t *testing.T, cases []pushedCase) {
	t.Helper()
	for _, indexed := range []bool{false, true} {
		db := rdb.NewDatabase("m")
		db.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, q INT, t FLOAT, s VARCHAR, n VARCHAR, o BOOL, d DATE, k INT)`)
		if indexed {
			for _, col := range []string{"q", "t", "s", "n", "o", "d", "k"} {
				db.MustExec(`CREATE INDEX ON items (` + col + `)`)
			}
		}
		db.MustExec(`INSERT INTO items VALUES (1, 3, 0.5, 'x', 'Ada', TRUE, '2020-01-02', 5),
			(2, 2, 0.000001, '5', NULL, FALSE, '2021-03-04', NULL), (100, 4, 250.0, 'ab', 'Bob', TRUE, NULL, 1),
			(7, 5, -0.00002, 'x', 'Cy', FALSE, '2019-05-06', 0)`)
		cat := catalog.New()
		if err := cat.AddSource(sources.NewRelationalSource("m", db)); err != nil {
			t.Fatal(err)
		}
		pushed, plain := New(cat, Config{}), New(cat, Config{DisablePushdown: true})
		answer := func(e *Engine, q string, ordered bool) (string, string) {
			res, err := e.Query(context.Background(), q)
			if err != nil {
				t.Logf("%s: %v", q, err)
				return "error", ""
			}
			ids := make([]string, len(res.Values))
			for i, v := range res.Values {
				ids[i] = xmldm.Stringify(v)
			}
			if !ordered {
				slices.Sort(ids)
			}
			return strings.Join(ids, ","), pushedSQL(res.Explain)
		}
		for _, tc := range cases {
			const pat = `WHERE <item><id>$i</id><q>$q</q><t>$t</t><s>$s</s><n>$n</n><o>$o</o><d>$d</d><k>$k</k></item> IN "m"`
			ordered := strings.HasPrefix(tc.pred, "ORDER-BY")
			q := pat + `, ` + tc.pred + ` CONSTRUCT <r>$i</r>`
			if ordered {
				q = pat + ` CONSTRUCT <r>$i</r> ` + tc.pred
			}
			got, plan := answer(pushed, q, ordered)
			if want, _ := answer(plain, q, ordered); got != want || got != tc.want {
				t.Errorf("indexed=%v %s: pushed %s, not pushed %s, want %s", indexed, tc.pred, got, want, tc.want)
			}
			if !strings.Contains(plan, tc.sql) {
				t.Errorf("indexed=%v %s: the plan does not push %s:\n%s", indexed, tc.pred, tc.sql, plan)
			}
		}
	}
}

// pushedSQL joins the details of an EXPLAIN tree's fragment scans,
// "pushdown <source>: <SQL>" a line.
func pushedSQL(ex *ExplainTree) string {
	var lines []string
	ex.Walk(func(n *algebra.ExplainNode) {
		if strings.HasPrefix(n.Detail, "pushdown ") {
			lines = append(lines, n.Detail)
		}
	})
	return strings.Join(lines, "\n")
}

// TestPushedCellsAnswerAsTheMediator: the source reads a cell as the
// mediator binds it — its export text, and NULL as "" — and evaluates a
// pushed predicate with the mediator's operators, so NULL, BOOL, DATE and
// nullable INT cells pass the predicates they pass without pushdown, with
// an index or without one.
func TestPushedCellsAnswerAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`$n = ""`, "2", "(n = '')"},
		{`$n != "Ada"`, "100,2,7", "(n != 'Ada')"},
		{`$o = TRUE`, "", "(o = TRUE)"},
		{`$o = "true"`, "1,100", "(o = 'true')"},
		{`$d = "2020-01-02T00:00:00Z"`, "1", "(d = '2020-01-02T00:00:00Z')"},
		// "2020" is a number, and text sorts after every number.
		{`$d > "2020"`, "1,100,2,7", "(d > '2020')"},
		{`$d = ""`, "100", "(d = '')"},
		// "" + 1 is the text "1", which is greater than 0.
		{`$k + 1 > 0`, "1,100,2,7", "((k + 1) > 0)"},
		{`$k = ""`, "2", "(k = '')"},
		{`$k < 3`, "100,7", "(k < 3)"},
		{`contains($n, "")`, "1,100,2,7", "n LIKE '%%'"},
		{`$n + "z" = "z"`, "2", "((n + 'z') = 'z')"},
		{`length($n) = 0`, "2", "(length(n) = 0)"},
	})
}

// TestPushedOrderAnswersAsTheMediator: a pushed ORDER BY sorts the cells
// the mediator would sort, so a NULL INT sorts after every number, as the
// empty text it binds does. A BOOL sorts as its text, and so does a DATE,
// where NULL's "" comes first.
func TestPushedOrderAnswersAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`ORDER-BY $k`, "7,100,1,2", "ORDER BY k"},
		{`ORDER-BY $k DESCENDING`, "2,1,100,7", "ORDER BY k DESC"},
		{`ORDER-BY $o`, "2,7,1,100", "ORDER BY o"},
		{`ORDER-BY $d`, "100,7,1,2", "ORDER BY d"},
	})
}

// TestPushedFloatsAnswerAsTheMediator: a float literal too small or too
// large for %g to write without an exponent (0.00001, 1e20) is pushed as
// digits the source reads — an integer past the int64 range as a FLOAT —
// so the query answers as it does without pushdown, where it failed to
// lex. An = on the indexed INT key against 100.0 still finds the key.
func TestPushedFloatsAnswerAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`$t > 0.00001`, "1,100", "(t > 0.00001)"},
		{`$t < -0.00001`, "7", "(t < -0.00001)"},
		{`$i < 99999999999999999999`, "1,100,2,7", "(id < 100000000000000000000)"},
		{`$i > 0 - 99999999999999999999`, "1,100,2,7", "(id > (0 - 100000000000000000000))"},
		{`$i = 100.0`, "100", "(id = 100)"},
	})
}

// TestPushedDivisionAnswersAsTheMediator: the source divides INT by INT
// as the mediator does (3 / 2 is 1.5, not 1), so a pushed division holds
// for the rows it holds for without pushdown.
func TestPushedDivisionAnswersAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`$q / 2 = 1`, "2", "((q / 2) = 1)"},
		{`$q / 2 = 1.5`, "1", "((q / 2) = 1.5)"},
		{`$i / $q > 2`, "100", "((id / q) > 2)"},
	})
}

// TestPushedPlusAnswersAsTheMediator: + concatenates only when its left
// operand is non-numeric text, in the source as in the mediator, so
// $s + 1 over 'x' is "x1" both ways and 1 + $s over 'x' fails both ways.
func TestPushedPlusAnswersAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`$s + 1 = "x1"`, "1,7", "((s + 1) = 'x1')"},
		{`1 + $s = 6`, "error", ""},
	})
}

// TestPushedErrorsAnswerAsTheMediator: conjuncts run in query order, so a
// predicate after one the source cannot take (a contains needle holding
// %) is pushed only when neither can fail. A failing predicate the
// mediator keeps fails on the rows a later pushed one would have ruled
// out, and a later failing one never runs on the rows a kept one rules
// out. In the other order the pushed conjunct runs first either way.
func TestPushedErrorsAnswerAsTheMediator(t *testing.T) {
	requirePushedAsMediator(t, []pushedCase{
		{`contains(1 / $k, "%"), $i = 1`, "error", ""},
		{`$i = 1, contains(1 / $k, "%")`, "", "(id = 1)"},
		{`contains($s, "%"), 1 / $k > 0`, "", "FROM items"},
		{`1 / $k > 0, contains($s, "%")`, "error", ""},
		// Neither can fail: the later one is still pushed.
		{`contains($s, "%"), $i = 1`, "", "(id = 1)"},
		// A constant predicate that can fail holds back the ones after
		// it (no row has id 8), and runs on the rows earlier ones pass.
		{`1 / 0 > 0, $i = 8`, "error", ""},
		{`$i = 8, 1 / 0 > 0`, "", "(id = 8)"},
		{`$i = 7, 1 / 0 > 0`, "error", ""},
	})
}

// nativeRecorder wraps a source and records the native text of every
// request it is sent. It does not forward FetchRows, so fragments reach
// it through Fetch.
type nativeRecorder struct {
	catalog.Source
	mu   sync.Mutex
	sent []string
}

func (r *nativeRecorder) Inner() catalog.Source { return r.Source }

func (r *nativeRecorder) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	r.mu.Lock()
	r.sent = append(r.sent, req.Native)
	r.mu.Unlock()
	return r.Source.Fetch(ctx, req)
}

// TestTwinEnginesSendTheSameSQL: two engines over one catalog — a serial
// twin beside the engine it checks — each unfold a view under fresh
// variable names of their own, and still send the relational source the
// same SQL for one query, naming table columns only.
func TestTwinEnginesSendTheSameSQL(t *testing.T) {
	crm := rdb.NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	crm.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'Alan', 'Cambridge'), (3, 'Grace', 'London')`)
	rec := &nativeRecorder{Source: sources.NewRelationalSource("crmdb", crm)}
	cat := catalog.New()
	if err := cat.AddSource(rec); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineViewQL("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	twin := New(cat, Config{Parallelism: 1, Metrics: obs.NewRegistry()})
	engine := New(cat, Config{Metrics: obs.NewRegistry()})
	const q = `WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where></cust> IN "customers",
		$c = "London", $i < 3 CONSTRUCT <r>$w</r>`
	var sent [2][]string
	for k, e := range []*Engine{twin, engine} {
		rec.sent = nil
		res, err := e.Query(context.Background(), q)
		if err != nil || len(res.Values) != 1 {
			t.Fatalf("engine %d: %v, %v", k, res, err)
		}
		sent[k] = rec.sent
	}
	want := []string{`SELECT city, id, name FROM customers WHERE (city = 'London') AND (id < 3)`}
	if !slices.Equal(sent[0], want) || !slices.Equal(sent[1], want) {
		t.Errorf("the twin sent %q and the engine %q, want both %q", sent[0], sent[1], want)
	}
}

// TestPushedJoinedLeafAnswersAsTheMediator: a relational leaf joined onto
// an earlier group runs its predicates above the join unpushed, on the
// joined rows alone, and in its source pushed, on every row of the
// table. So a predicate that can fail is not pushed there, nor any after
// it: 1 / $k > 0 fails on the NULL and the 0 of rows the join drops, and
// answers the one row id 1 joins, pushdown on or off.
func TestPushedJoinedLeafAnswersAsTheMediator(t *testing.T) {
	db := rdb.NewDatabase("m")
	db.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, k INT)`)
	db.MustExec(`INSERT INTO items VALUES (1, 5), (2, NULL), (3, 0)`)
	doc, err := sources.NewXMLSource("x", `<d><t><a>p</a><b>q</b><c>r</c><e>s</e><f>u</f><id>1</id></t></d>`)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, src := range []catalog.Source{sources.NewRelationalSource("m", db), doc} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	// Five literal constraints put the XML group first (two predicates
	// over the table's variables count four).
	const pat = `WHERE <t><a>"p"</a><b>"q"</b><c>"r"</c><e>"s"</e><f>"u"</f><id>$i</id></t> IN "x",
		<item><id>$i</id><k>$k</k></item> IN "m", `
	for _, tc := range []struct{ preds, sql string }{
		{`1 / $k > 0`, "FROM items"},
		{`1 / $k > 0, $k = 5`, "FROM items"},
		// Before the first that can fail, a predicate is still pushed.
		{`$k > 1, 1 / $k > 0`, "FROM items WHERE (k > 1)"},
	} {
		q := pat + tc.preds + ` CONSTRUCT <r>$i</r>`
		for _, cfg := range []Config{{}, {DisablePushdown: true}} {
			res, err := New(cat, cfg).Query(context.Background(), q)
			if err != nil {
				t.Errorf("%s, pushdown off %v: %v", tc.preds, cfg.DisablePushdown, err)
				continue
			}
			if len(res.Values) != 1 || xmldm.Stringify(res.Values[0]) != "1" {
				t.Errorf("%s, pushdown off %v: %v, want the one row of id 1", tc.preds, cfg.DisablePushdown, res.Values)
			}
			if plan := pushedSQL(res.Explain); !cfg.DisablePushdown && !strings.HasSuffix(plan, tc.sql) {
				t.Errorf("%s: the plan does not push %s:\n%s", tc.preds, tc.sql, plan)
			}
		}
	}
}
