package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
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

// TestStreamedAnswerPullsBindingsOneAtATime: an answer serialized as it
// is built takes each binding from the plan as the plan produces it, so a
// construct error on row k stops the scan there — the plan has produced
// k+1 bindings, and the buffer holds the k rows before it for the caller
// to discard. The materialized path drains every binding first.
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
	if got := evalTuples(t, store); got != fmt.Sprint(rows) {
		t.Errorf("materialized: the plan produced %s bindings, want all %d", got, rows)
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

// TestStreamedAnswerHoldsNoBindingPerRow pins what a streamed answer
// allocates per row of a pushed fragment: the source's result row — the
// rdb.Result is the fetch's payload, held by the access — and the text
// of its INT cell, and nothing for the binding: no list of bindings, and
// one tuple refilled for every row. It is the difference between 2n rows
// and n, so what a query allocates once cancels; the collector is off
// while it measures, so the pooled response buffer is the same one each
// time.
func TestStreamedAnswerHoldsNoBindingPerRow(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	q := `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r id=$i><n>$n</n></r>`
	bytesPerQuery := func(n int) float64 {
		e := newStreamEngine(t, n, -1, nil)
		run := func() {
			buf := xmlparse.NewBuffer()
			buf.StartDocument(0)
			res, err := e.QueryOpt(context.Background(), q, QueryOptions{Buffer: buf})
			if err != nil || res.Rows != n || res.Values != nil {
				t.Fatalf("%d rows: %v, %v", n, res, err)
			}
			buf.Release()
		}
		run() // prepare the shape and grow the buffer
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const n = 1000
	perRow := (bytesPerQuery(2*n) - bytesPerQuery(n)) / n
	// A projected row: two cells and a slice header (56 bytes); the id's
	// text: a string and its box (24 bytes).
	if perRow > 100 {
		t.Errorf("a streamed answer allocates %.0f bytes per row, want at most 100", perRow)
	}
	t.Logf("%.0f bytes per row", perRow)
}
