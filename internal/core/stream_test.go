package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sched"
	"repro/internal/sources"
	"repro/internal/testkit"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// newStreamEngine serves crmdb.customers with n rows (id, name "N<id>")
// and keeps every trace in traces (nil keeps none); late() fails on the
// name "stop".
func newStreamEngine(t testing.TB, n int, stopAt int, traces *obs.TraceStore) *Engine {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
	for i := 0; i < n; i++ {
		name := fmt.Sprint("N", i)
		if i == stopAt {
			name = "stop"
		}
		if err := db.Insert("customers", rdb.Row{xmldm.Int(int64(i)), xmldm.String(name)}); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("crmdb", db)); err != nil {
		t.Fatal(err)
	}
	e := New(cat, Config{Metrics: obs.NewRegistry(), Traces: traces})
	e.RegisterFunc("late", func(args []xmldm.Value) (xmldm.Value, error) {
		if xmldm.Stringify(args[0]) == "stop" {
			return nil, errors.New("late: stop")
		}
		return args[0], nil
	})
	return e
}

// evalTuples is the tuple count on the eval span of the last trace kept.
func evalTuples(t *testing.T, store *obs.TraceStore) string {
	t.Helper()
	var got string
	for _, root := range store.Last(1) {
		root.Walk(func(sp *obs.Span) {
			if strings.HasPrefix(sp.Name(), "eval ") {
				got, _ = sp.Attr("tuples")
			}
		})
	}
	return got
}

// TestStreamedAnswerPullsBindingsOneAtATime: an answer in its final order
// takes each binding from the plan as the plan produces it, in either
// sink, so a construct error on row k stops the scan there — the plan has
// produced k+1 bindings, and the buffer holds the k rows before it for the
// caller to discard.
func TestStreamedAnswerPullsBindingsOneAtATime(t *testing.T) {
	const rows, stop = 100, 10
	store := obs.NewTraceStore(obs.StoreConfig{})
	e := newStreamEngine(t, rows, stop, store)
	q := `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i>{ late($n) }</r>`

	buf := xmlparse.NewBuffer()
	defer buf.Release()
	buf.StartDocument(0)
	if _, err := e.QueryOpt(context.Background(), q, QueryOptions{Buffer: buf}); err == nil || !strings.Contains(err.Error(), "late: stop") {
		t.Fatalf("streamed: error %v, want late: stop", err)
	}
	if got := evalTuples(t, store); got != fmt.Sprint(stop+1) {
		t.Errorf("streamed: the plan produced %s bindings before the error, want %d", got, stop+1)
	}
	if got := strings.Count(string(buf.Bytes()), "<r "); got != stop {
		t.Errorf("streamed: %d rows written before the error, want %d", got, stop)
	}

	if _, err := e.Query(context.Background(), q); err == nil || !strings.Contains(err.Error(), "late: stop") {
		t.Fatalf("materialized: error %v, want late: stop", err)
	}
	if got := evalTuples(t, store); got != fmt.Sprint(stop+1) {
		t.Errorf("materialized: the plan produced %s bindings before the error, want %d", got, stop+1)
	}
}

// TestStreamedRowWrittenBeforeNextBinding: on the streamed path, row k
// is in the buffer before the plan produces binding k+1. The plan's
// Select evaluates seen() on each binding as it produces it, and seen()
// counts the rows already written; with the plan drained first it would
// count none.
func TestStreamedRowWrittenBeforeNextBinding(t *testing.T) {
	const rows = 20
	e := newStreamEngine(t, rows, -1, obs.NewTraceStore(obs.StoreConfig{}))
	buf := xmlparse.NewBuffer()
	defer buf.Release()
	buf.StartDocument(0)
	var written []int
	e.RegisterFunc("seen", func(args []xmldm.Value) (xmldm.Value, error) {
		written = append(written, strings.Count(string(buf.Bytes()), "<r "))
		return args[0], nil
	})
	q := `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", seen($n) = $n CONSTRUCT <r id=$i>$n</r>`
	res, err := e.QueryOpt(context.Background(), q, QueryOptions{Buffer: buf})
	if err != nil || res.Rows != rows {
		t.Fatalf("%v rows, error %v; want %d", res, err, rows)
	}
	if len(written) != rows {
		t.Fatalf("seen() ran %d times, want %d", len(written), rows)
	}
	for k, n := range written {
		if n != k {
			t.Fatalf("binding %d was produced with %d rows written, want %d (all: %v)", k, n, k, written)
		}
	}
}

// TestStreamedSelectChainEqualsMaterialized: a streamed answer whose
// fragment scan sits under a chain of Selects the source cannot run — a
// registered function, a correlated aggregate whose nested query runs on
// the binding, then a nested CONSTRUCT query on it too — refills one
// tuple for every row, and writes the rows the materialized answer holds,
// byte for byte (run under -race, ten rounds).
func TestStreamedSelectChainEqualsMaterialized(t *testing.T) {
	e := newStreamEngine(t, 60, -1, nil)
	root := &xmldm.Node{Name: "results"}
	for _, q := range []string{
		`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 50, late($n) = $n CONSTRUCT <r id=$i>$n</r>`,
		`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 50, late($n) = $n,
			count({ WHERE <customer><name>$m</name></customer> IN "crmdb", $m = $n CONSTRUCT <o/> }) = 1
		CONSTRUCT <r id=$i>$n{ WHERE <customer><id>$j</id><name>$m</name></customer> IN "crmdb", $m = $n CONSTRUCT <k>$j</k> }</r>`,
	} {
		res, err := e.Query(context.Background(), q)
		if err != nil || len(res.Values) != 50 {
			t.Fatalf("materialized: %v, %v; want 50 rows", res, err)
		}
		want := xmlparse.NewBuffer()
		want.StartDocument(0)
		for _, v := range res.Values {
			want.WriteChild(v.(*xmldm.Node))
		}
		buf := xmlparse.NewBuffer()
		buf.StartDocument(0)
		res, err = e.QueryOpt(context.Background(), q, QueryOptions{Buffer: buf})
		if err != nil || res.Rows != 50 || res.Values != nil {
			t.Fatalf("streamed: %v, %v; want 50 rows written", res, err)
		}
		if got, want := string(buf.EndDocument(root)), string(want.EndDocument(root)); got != want {
			t.Errorf("%s streamed\n%s\nmaterialized\n%s", q, got, want)
		}
		want.Release()
		buf.Release()
	}
}

// bytesPerRow is what answering q allocates per row, given a buffer or
// not: the difference between 2n rows and n, so what a query allocates
// once cancels. The collector is off while it measures, so the pooled
// response buffer is the same one each time, and each side is the least
// of three rounds, since what another goroutine of the process allocates
// meanwhile can only add to one.
func bytesPerRow(t *testing.T, q string, buffered bool) float64 {
	t.Helper()
	bytesPerQuery := func(n int) float64 {
		e := newStreamEngine(t, n, -1, nil)
		run := func() {
			buf := xmlparse.NewBuffer()
			buf.StartDocument(0)
			qo := QueryOptions{}
			if buffered {
				qo.Buffer = buf
			}
			res, err := e.QueryOpt(context.Background(), q, qo)
			if err != nil || res.Rows != n || (res.Values != nil) == buffered {
				t.Fatalf("%s, %d rows, buffered %v: %v, %v", q, n, buffered, res, err)
			}
			buf.Release()
		}
		run() // prepare the shape and grow the buffer
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 10
		least := math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	const n = 1000
	return (bytesPerQuery(2*n) - bytesPerQuery(n)) / n
}

// finalOrder are a bare fragment scan and one under a Select the source
// cannot run (a registered function), each answered in its final order,
// with the most each may allocate per row given a buffer (streamed) and
// built as trees (materialized).
var finalOrder = []struct {
	name, q                string
	streamed, materialized float64
}{
	// The table's row list: nothing per row.
	{"scan", `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i><n>$n</n></r>`, 8, 300},
	// late()'s argument list (16 bytes).
	{"select", `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", late($n) = $n CONSTRUCT <r id=$i><n>$n</n></r>`, 24, 316},
}

// TestStreamedAnswerHoldsNoBindingPerRow pins what a streamed answer
// allocates per row of a pushed fragment: the source's result row list —
// the rdb.Result is the fetch's payload, held by the access; an
// unfiltered scan shares the table's — and nothing for the binding or its
// cells: no list of bindings, one tuple refilled for every row, and each
// cell's text the box the table stored at INSERT. So it is with a Select
// above the scan whose predicate the source cannot run (a registered
// function): the Select hands on the scan's one tuple, and its predicate
// costs only the function's argument list.
func TestStreamedAnswerHoldsNoBindingPerRow(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	for _, tc := range finalOrder {
		perRow := bytesPerRow(t, tc.q, true)
		if perRow > tc.streamed {
			t.Errorf("%s: a streamed answer allocates %.0f bytes per row, want at most %.0f", tc.name, perRow, tc.streamed)
		}
		t.Logf("%s: %.0f bytes per row", tc.name, perRow)
	}
}

// TestMaterializedAnswerHoldsNoBindingPerRow: an answer built as trees in
// its final order takes the streamed answer's path, so per row it
// allocates what the streamed answer does and its result: the tree's
// share of the Builder's slabs (two elements, two child slots and an
// attribute) and its place in the answer's Values, both grown as they
// fill. No binding is held: the scan refills one tuple. It reads 229
// bytes per row for the bare scan and 245 under the Select; holding the
// bindings and building them after the drain read 367 and 383.
func TestMaterializedAnswerHoldsNoBindingPerRow(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	for _, tc := range finalOrder {
		perRow := bytesPerRow(t, tc.q, false)
		if perRow > tc.materialized {
			t.Errorf("%s: a materialized answer allocates %.0f bytes per row, want at most %.0f", tc.name, perRow, tc.materialized)
		}
		t.Logf("%s: %.0f bytes per row", tc.name, perRow)
	}
}

// TestSortedAnswerBuildsNoTree pins what a mediator-sorted answer given a
// buffer allocates per row: the binding held until the sort (a tuple of
// its own), its key, its place in the permutation and late()'s argument
// list, but no result tree — each row is written by the byte sink once
// the rows are sorted. It reads 219 bytes; building the rows as trees and
// serializing them after the sort read 456.
func TestSortedAnswerBuildsNoTree(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	const q = `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i><n>$n</n></r> ORDER-BY late($n) DESC`
	perRow := bytesPerRow(t, q, true)
	if perRow > 320 {
		t.Errorf("a sorted answer allocates %.0f bytes per row, want at most 320", perRow)
	}
	t.Logf("%.0f bytes per row", perRow)
}

// TestSortedAnswerErrorsAreTheSameInBothSinks: one error rule for both
// sinks. A final-order row's ORDER-BY keys are evaluated just before it
// is written, and a mediator-sorted row's as it is pulled, its template
// once the rows are sorted: the error reported is the first key error in
// production order, or else the first template error in answer order.
// Here two rows fail with different messages, and the call given a
// buffer reports what the materialized call reports.
func TestSortedAnswerErrorsAreTheSameInBothSinks(t *testing.T) {
	e := newStreamEngine(t, 10, -1, nil)
	fails := func(prefix string, names ...string) func([]xmldm.Value) (xmldm.Value, error) {
		return func(args []xmldm.Value) (xmldm.Value, error) {
			if s := xmldm.Stringify(args[0]); slices.Contains(names, s) {
				return nil, errors.New(prefix + s)
			}
			return args[0], nil
		}
	}
	e.RegisterFunc("boom", fails("boom: ", "N2", "N7"))
	e.RegisterFunc("key", fails("key: ", "N8"))
	const match = `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" `
	for _, tc := range []struct{ q, want string }{
		// Production order.
		{match + `CONSTRUCT <r>{ boom($n) }</r>`, "boom: N2"},
		// The source sorts: answer order is production order.
		{match + `CONSTRUCT <r>{ boom($n) }</r> ORDER-BY $n`, "boom: N2"},
		// The mediator sorts (late() cannot be pushed): N7 is written
		// before N2.
		{match + `CONSTRUCT <r>{ boom($n) }</r> ORDER-BY late($n) DESC`, "boom: N7"},
		// A key error, on a row pulled after N2, wins over the template's.
		{match + `CONSTRUCT <r>{ boom($n) }</r> ORDER-BY key($n)`, "key: N8"},
	} {
		_, err := e.Query(context.Background(), tc.q)
		buf := xmlparse.NewBuffer()
		buf.StartDocument(0)
		_, errBuf := e.QueryOpt(context.Background(), tc.q, QueryOptions{Buffer: buf})
		buf.Release()
		if err == nil || errBuf == nil || !strings.Contains(err.Error(), tc.want) || err.Error() != errBuf.Error() {
			t.Errorf("%s: materialized error %v, buffered %v; want both %q", tc.q, err, errBuf, tc.want)
		}
	}
}

// TestFinalOrderTemplateErrorStopsThePlan: an answer in its final order
// writes each row as it is pulled, in either sink, so a template that
// fails on row k fails the query before the plan produces row k+1, whose
// Select would fail too: both sinks report the template's error.
func TestFinalOrderTemplateErrorStopsThePlan(t *testing.T) {
	e := newStreamEngine(t, 10, -1, nil)
	e.RegisterFunc("tmpl", func(args []xmldm.Value) (xmldm.Value, error) {
		if xmldm.Stringify(args[0]) == "N3" {
			return nil, errors.New("tmpl: N3")
		}
		return args[0], nil
	})
	e.RegisterFunc("plan", func(args []xmldm.Value) (xmldm.Value, error) {
		if xmldm.Stringify(args[0]) == "N4" {
			return nil, errors.New("plan: N4")
		}
		return args[0], nil
	})
	const q = `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", plan($n) = $n CONSTRUCT <r>{ tmpl($n) }</r>`
	for _, buffered := range []bool{false, true} {
		buf := xmlparse.NewBuffer()
		buf.StartDocument(0)
		qo := QueryOptions{}
		if buffered {
			qo.Buffer = buf
		}
		_, err := e.QueryOpt(context.Background(), q, qo)
		buf.Release()
		if err == nil || !strings.Contains(err.Error(), "tmpl: N3") {
			t.Errorf("buffered %v: error %v, want tmpl: N3", buffered, err)
		}
	}
}

// TestOneRowAnswerAllocations pins what Engine.QueryOpt allocates for a
// prepared one-row answer in its final order, built as a tree and given a
// buffer: the answer loop makes no slice per rewrite for either sink, the
// node sink's builder and the ORDER-BY key list stay on the stack. It read
// 95 and 89 when the node sink held its rows and the key list escaped.
func TestOneRowAnswerAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	e := newStreamEngine(t, 1, -1, nil)
	const q = `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i><n>$n</n></r>`
	buf := xmlparse.NewBuffer()
	defer buf.Release()
	for _, tc := range []struct {
		sink string
		qo   QueryOptions
		max  float64
	}{
		{"node", QueryOptions{}, 91},
		{"byte", QueryOptions{Buffer: buf}, 87},
	} {
		run := func() {
			buf.StartDocument(0)
			if res, err := e.QueryOpt(context.Background(), q, tc.qo); err != nil || res.Rows != 1 {
				t.Fatalf("%s sink: %v, %v", tc.sink, res, err)
			}
		}
		run() // prepare the shape
		if n := testing.AllocsPerRun(200, run); n > tc.max {
			t.Errorf("%s sink: a one-row answer allocates %v times, want at most %v", tc.sink, n, tc.max)
		} else {
			t.Logf("%s sink: %v allocations", tc.sink, n)
		}
	}
}

// TestParallelSortedUnionEqualsSerialTwin: an answer the mediator sorts
// across two rewrites (a union view), past the sort's gate, its keys tying
// within and across the rewrites, is byte for byte the serial twin's,
// built as trees or written into a buffer, at any granted degree: each
// row goes through its own rewrite's sink in the sorted order (run under
// -race, ten rounds).
func TestParallelSortedUnionEqualsSerialTwin(t *testing.T) {
	const rows = 600
	cat := newStreamEngine(t, rows, -1, nil).Catalog()
	for _, v := range []string{
		`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 300 CONSTRUCT <person><id>$i</id><name>$n</name></person>`,
		`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i >= 300 CONSTRUCT <person><id>$i</id><name>$n</name></person>`,
	} {
		if err := cat.DefineViewQL("people", v); err != nil {
			t.Fatal(err)
		}
	}
	const q = `WHERE <person><id>$i</id><name>$n</name></person> IN "people" CONSTRUCT <p id=$i>$n</p> ORDER-BY length($n) DESC`
	schd := sched.New(sched.Config{Budget: 2})
	render := func(par int, buffered bool) string {
		e := New(cat, Config{Metrics: obs.NewRegistry(), Parallelism: par, Scheduler: schd})
		buf := xmlparse.NewBuffer()
		defer buf.Release()
		buf.StartDocument(2)
		qo := QueryOptions{}
		if buffered {
			qo.Buffer = buf
		}
		res, err := e.QueryOpt(context.Background(), q, qo)
		if err != nil || res.Rows != rows || res.Stats.Rewrites != 2 {
			t.Fatalf("parallelism %d, buffered %v: %v, %v; want %d rows from 2 rewrites", par, buffered, res, err, rows)
		}
		for _, v := range res.Values {
			buf.WriteChild(v.(*xmldm.Node))
		}
		return string(buf.EndDocument(res.View()))
	}
	want := render(1, false)
	before := schd.Snap().Downgrades
	for _, par := range []int{1, 4} {
		for _, buffered := range []bool{false, true} {
			if got := render(par, buffered); got != want {
				t.Errorf("parallelism %d, buffered %v: the sorted answer is\n%s\nthe serial twin built\n%s", par, buffered, got, want)
			}
		}
	}
	// Each sort at parallelism 4 asked for 4 and was granted 3: it ran in
	// parallel.
	if d := schd.Snap().Downgrades - before; d != 2 {
		t.Errorf("the sorts were downgraded %d times, want twice (granted workers)", d)
	}
}

// TestParallelSortedAnswerEqualsSerialTwin: a mediator-sorted answer past
// the sort's gate, its keys tying in long runs, sorted by the workers the
// scheduler grants and written into a buffer, is byte for byte what the
// serial twin writes and what it builds (run under -race, ten rounds).
func TestParallelSortedAnswerEqualsSerialTwin(t *testing.T) {
	const rows = 600
	const q = `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i>$n</r> ORDER-BY length(late($n)) DESC`
	cat := newStreamEngine(t, rows, -1, nil).Catalog()
	schd := sched.New(sched.Config{Budget: 2})
	engine := func(par int) *Engine {
		e := New(cat, Config{Metrics: obs.NewRegistry(), Parallelism: par, Scheduler: schd})
		e.RegisterFunc("late", func(args []xmldm.Value) (xmldm.Value, error) { return args[0], nil })
		return e
	}
	render := func(e *Engine, buffered bool) string {
		buf := xmlparse.NewBuffer()
		defer buf.Release()
		buf.StartDocument(2)
		qo := QueryOptions{}
		if buffered {
			qo.Buffer = buf
		}
		res, err := e.QueryOpt(context.Background(), q, qo)
		if err != nil || res.Rows != rows {
			t.Fatalf("%v, %v; want %d rows", res, err, rows)
		}
		for _, v := range res.Values {
			buf.WriteChild(v.(*xmldm.Node))
		}
		return string(buf.EndDocument(res.View()))
	}
	serial := engine(1)
	want := render(serial, false)
	if got := render(serial, true); got != want {
		t.Fatalf("the serial twin writes\n%s\nand builds\n%s", got, want)
	}
	parallel := engine(4)
	before := schd.Snap().Downgrades
	if got := render(parallel, true); got != want {
		t.Errorf("at parallelism 4 the sorted answer is\n%s\nthe serial twin's\n%s", got, want)
	}
	// The sort asked for 4 and was granted 3 (the budget's two slots and
	// itself): it ran in parallel.
	if d := schd.Snap().Downgrades - before; d != 1 {
		t.Errorf("the sort was downgraded %d times, want once (granted workers)", d)
	}
}
