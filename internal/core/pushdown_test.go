package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// pushedCase is a predicate over items' $i, $q, $t and $s, the ids it
// holds for ("error" when the query fails), and the SQL conjunct it is
// pushed as.
type pushedCase struct{ pred, want, sql string }

// requirePushedAsMediator runs each case's query on an engine that
// pushes predicates into the relational source and on one that does not,
// and fails unless both answer the case's rows (in any order: an index
// may answer in its own) and the first plan carries the case's SQL.
func requirePushedAsMediator(t *testing.T, cases []pushedCase) {
	t.Helper()
	db := rdb.NewDatabase("m")
	db.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, q INT, t FLOAT, s VARCHAR)`)
	db.MustExec(`INSERT INTO items VALUES (1, 3, 0.5, 'x'), (2, 2, 0.000001, '5'), (100, 4, 250.0, 'ab'), (7, 5, -0.00002, 'x')`)
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("m", db)); err != nil {
		t.Fatal(err)
	}
	pushed, plain := New(cat, Config{}), New(cat, Config{DisablePushdown: true})
	answer := func(e *Engine, q string) (string, []string) {
		res, err := e.Query(context.Background(), q)
		if err != nil {
			t.Logf("%s: %v", q, err)
			return "error", nil
		}
		ids := make([]string, len(res.Values))
		for i, v := range res.Values {
			ids[i] = xmldm.Stringify(v)
		}
		slices.Sort(ids)
		return strings.Join(ids, ","), res.Stats.Explain
	}
	for _, tc := range cases {
		q := `WHERE <item><id>$i</id><q>$q</q><t>$t</t><s>$s</s></item> IN "m", ` + tc.pred + ` CONSTRUCT <r>$i</r>`
		got, explain := answer(pushed, q)
		if want, _ := answer(plain, q); got != want || got != tc.want {
			t.Errorf("%s: pushed %s, not pushed %s, want %s", tc.pred, got, want, tc.want)
		}
		if plan := strings.Join(explain, "\n"); !strings.Contains(plan, tc.sql) {
			t.Errorf("%s: the plan does not push %s:\n%s", tc.pred, tc.sql, plan)
		}
	}
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
