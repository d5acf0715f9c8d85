package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/xmlparse"
)

// TestProfileSpanTree checks the acceptance contract of the profile
// option: the span tree returned by Profile agrees with the
// completeness report (same sources, rows, local/error flags), and the
// tree carries the planning/prefetch/eval structure. A construct span
// follows a sort alone: an answer in its final order is built under eval.
func TestProfileSpanTree(t *testing.T) {
	eng, _ := newTestEngineOver(t, testTickets, Config{Metrics: obs.NewRegistry()})
	res, err := eng.QueryOpt(context.Background(),
		`WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`,
		QueryOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace
	if root == nil || root.Name() != "engine" {
		t.Fatalf("trace root = %v", root)
	}
	if root.TraceID().IsZero() || root.SpanID().IsZero() {
		t.Error("profile root should carry trace identity")
	}
	if root.Duration() <= 0 {
		t.Error("root span should be finished")
	}

	// Per-source fetch spans agree with the completeness report.
	fetches := root.FindAll("fetch ")
	if len(fetches) != len(res.Completeness.Statuses) {
		t.Fatalf("fetch spans = %d, statuses = %d", len(fetches), len(res.Completeness.Statuses))
	}
	for _, st := range res.Completeness.Statuses {
		found := false
		for _, sp := range fetches {
			src, _ := sp.Attr("source")
			if !strings.EqualFold(src, st.Source) {
				continue
			}
			found = true
			if rows, _ := sp.Attr("rows"); rows != fmt.Sprint(st.Rows) {
				t.Errorf("%s rows = %s, want %d", st.Source, rows, st.Rows)
			}
			if local, _ := sp.Attr("local"); local != fmt.Sprint(st.Local) {
				t.Errorf("%s local = %s, want %v", st.Source, local, st.Local)
			}
			if _, hasErr := sp.Attr("error"); hasErr != (st.Err != "") {
				t.Errorf("%s error presence = %v, want %v", st.Source, hasErr, st.Err != "")
			}
		}
		if !found {
			t.Errorf("no fetch span for source %s", st.Source)
		}
	}

	// Structural spans from every layer.
	for _, prefix := range []string{"unfold", "rewrite[0]", "plan", "prefetch", "eval "} {
		if len(root.FindAll(prefix)) == 0 {
			t.Errorf("missing %q span in tree", prefix)
		}
	}
	if cons := root.FindAll("construct"); len(cons) != 0 {
		t.Errorf("an unsorted answer has %d construct spans, want none", len(cons))
	}
	if v, ok := root.Attr("complete"); !ok || v != "true" {
		t.Errorf("complete attr = %q %v", v, ok)
	}
	sorted, err := eng.QueryOpt(context.Background(), ticketQuery("high", "London"), QueryOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if cons := sorted.Trace.FindAll("construct"); len(cons) != 1 {
		t.Errorf("a sorted answer has %d construct spans, want one", len(cons))
	}
}

// TestTracerRetainsQueries checks that an installed trace store records
// every query even without Profile, and that metrics count them.
func TestTracerRetainsQueries(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTraceStore(obs.StoreConfig{Limit: 4})
	eng, _ := newTestEngineOver(t, testTickets, Config{Metrics: reg, Traces: tr})
	q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	for i := 0; i < 3; i++ {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil {
			t.Error("Trace should only be set under Profile")
		}
	}
	if tr.Len() != 3 {
		t.Errorf("tracer retained %d traces", tr.Len())
	}
	if n := reg.Counter("nimble_queries_total").Value(); n != 3 {
		t.Errorf("queries_total = %d", n)
	}
	if c := reg.Histogram("nimble_query_seconds").Count(); c != 3 {
		t.Errorf("latency observations = %d", c)
	}
	// A failing query is traced with an error attribute and counted.
	if _, err := eng.Query(context.Background(), `WHERE <a>$x</a> IN "nosuch" CONSTRUCT <r>$x</r>`); err == nil {
		t.Fatal("query over unknown source should fail")
	}
	if n := reg.Counter("nimble_query_errors_total").Value(); n != 1 {
		t.Errorf("query_errors_total = %d", n)
	}
	last := tr.Last(1)
	if len(last) != 1 {
		t.Fatal("failed query not traced")
	}
	if _, ok := last[0].Attr("error"); !ok {
		t.Error("failed query trace missing error attr")
	}
}

// TestSortedConstructSpanFollowsTheSort: rows the mediator sorts are
// written after the sort, so the query's one construct span sits under
// the query span, after every rewrite, and no rewrite has one; an answer
// in its final order writes each row as it is pulled, under eval, and has
// no construct span. So it is in either sink.
func TestSortedConstructSpanFollowsTheSort(t *testing.T) {
	eng, _ := newTestEngineOver(t, testTickets, Config{Metrics: obs.NewRegistry()})
	for q, sorted := range map[string]bool{
		ticketQuery("high", "London"):                                         true,
		`WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`: false,
	} {
		for _, buffered := range []bool{false, true} {
			qo := QueryOptions{Profile: true}
			if buffered {
				qo.Buffer = xmlparse.NewBuffer()
				qo.Buffer.StartDocument(0)
			}
			res, err := eng.QueryOpt(context.Background(), q, qo)
			if err != nil {
				t.Fatal(err)
			}
			if buffered {
				qo.Buffer.Release()
			}
			var top []string
			for _, sp := range res.Trace.Children() {
				top = append(top, sp.Name())
			}
			want := 0
			if sorted {
				want = 1
			}
			last := top[len(top)-1] == "construct"
			if n := len(res.Trace.FindAll("construct")); last != sorted || n != want {
				t.Errorf("%s, buffered %v: query span's children %v, %d construct spans; sorted %v", q, buffered, top, n, sorted)
			}
		}
	}
}
