package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q_total")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: monotonic
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("q_total") != c {
		t.Error("lookup should return the same counter")
	}
	g := r.Gauge("inflight", "instance", "0")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
	r.GaugeFunc("derived", func() float64 { return 7 })
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	r.GaugeFunc("w", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	_ = r.Summary()

	var w SpanRef
	w.SetAttr("k", "v")
	w.SetInt("n", 1)
	w.Finish()
	if c := w.StartChild("c"); !c.IsZero() {
		t.Error("child of the no-op span should be the no-op span")
	}
	var s *Span
	if s.Duration() != 0 || s.Name() != "" || w.Tree() != nil {
		t.Error("nil span accessors")
	}
	var tr *TraceStore
	tr.Record(SpanRef{})
	if tr.Last(5) != nil || tr.Len() != 0 {
		t.Error("nil trace store accessors")
	}
	if tr.NewRoot("q", TraceContext{}).IsZero() {
		t.Error("nil store NewRoot should still mint a span")
	}
	tr.SetExporter(nil)
	if tr.HeadSampled(TraceID{1}) {
		t.Error("nil store should not head-sample")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.0005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %v, want within first bucket", p50)
	}
	if p95 := h.Quantile(0.95); p95 <= 0.01 || p95 > 0.1 {
		t.Errorf("p95 = %v, want within third bucket", p95)
	}
	// Overflow clamps to the largest finite bound.
	h2 := newHistogram([]float64{0.001})
	h2.Observe(5)
	if q := h2.Quantile(0.99); q != 0.001 {
		t.Errorf("overflow quantile = %v", q)
	}
	// Empty histogram.
	if q := newHistogram(nil).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("nimble_queries_total").Add(3)
	r.Counter("nimble_fetch_total", "source", "crmdb", "outcome", "ok").Add(2)
	r.Gauge("nimble_inflight", "instance", "0").Set(1.5)
	r.GaugeFunc("nimble_entries", func() float64 { return 4 })
	r.Histogram("nimble_query_seconds").Observe(0.002)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE nimble_queries_total counter",
		"nimble_queries_total 3",
		`nimble_fetch_total{source="crmdb",outcome="ok"} 2`,
		`nimble_inflight{instance="0"} 1.5`,
		"# TYPE nimble_entries gauge",
		"nimble_entries 4",
		"# TYPE nimble_query_seconds histogram",
		`nimble_query_seconds_bucket{le="0.0025"} 1`,
		`nimble_query_seconds_bucket{le="+Inf"} 1`,
		"nimble_query_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(r.Summary(), "nimble_queries_total = 3") {
		t.Errorf("summary = %q", r.Summary())
	}
}

func TestKindConflictReturnsDetachedMetric(t *testing.T) {
	r := NewRegistry()
	r.Counter("m").Inc()
	g := r.Gauge("m") // wrong kind: usable but unregistered
	g.Set(9)
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "9") {
		t.Errorf("conflicting gauge leaked into exposition: %s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "k", `a"b\c`).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `m{k="a\"b\\c"} 1`) {
		t.Errorf("escaping: %s", b.String())
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	fetch := root.StartChild("fetch crmdb")
	fetch.SetAttr("source", "crmdb")
	fetch.SetInt("rows", 42)
	fetch.SetBool("local", false)
	fetch.Finish()
	eval := root.StartChild("eval HashJoin")
	eval.Finish()
	root.Finish()
	tree := root.Tree()
	end := tree.Duration()
	time.Sleep(time.Millisecond)
	if root.Tree().Duration() != end {
		t.Error("Finish should freeze duration")
	}
	if len(tree.Children()) != 2 {
		t.Fatalf("children = %d", len(tree.Children()))
	}
	if v, ok := fetch.Tree().Attr("rows"); !ok || v != "42" {
		t.Errorf("rows attr = %q %v", v, ok)
	}
	if got := tree.FindAll("fetch "); len(got) != 1 || got[0].SpanID() != fetch.SpanID() {
		t.Errorf("FindAll = %v", got)
	}
	n := 0
	tree.Walk(func(*Span) { n++ })
	if n != 3 {
		t.Errorf("walk visited %d", n)
	}
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"name":"query"`, `"fetch crmdb"`, `"rows":"42"`, `"duration_ms"`} {
		if !strings.Contains(s, want) {
			t.Errorf("json missing %q: %s", want, s)
		}
	}
}

func TestSpanContextThreading(t *testing.T) {
	ctx := t.Context()
	if !FromContext(ctx).IsZero() {
		t.Error("empty context should carry no span")
	}
	ctx2, sp := StartSpan(ctx, "child")
	if !sp.IsZero() || ctx2 != ctx {
		t.Error("StartSpan without a parent should be a no-op")
	}
	root := NewSpan("root")
	ctx = ContextWithSpan(ctx, root)
	ctx3, child := StartSpan(ctx, "step")
	if child.IsZero() || FromContext(ctx3) != child {
		t.Fatal("child should thread through context")
	}
	if cs := root.Tree().Children(); len(cs) != 1 || cs[0].SpanID() != child.SpanID() {
		t.Errorf("root children = %v", cs)
	}
}

func TestTraceStoreRing(t *testing.T) {
	tr := NewTraceStore(StoreConfig{Limit: 3})
	for i := 0; i < 5; i++ {
		s := tr.NewRoot("query", TraceContext{})
		s.SetInt("i", int64(i))
		s.Finish()
		tr.Record(s)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	last := tr.Last(2)
	if len(last) != 2 {
		t.Fatalf("last = %d", len(last))
	}
	if v, _ := last[0].Attr("i"); v != "4" {
		t.Errorf("most recent first: %s", v)
	}
	if v, _ := last[1].Attr("i"); v != "3" {
		t.Errorf("second: %s", v)
	}
	if len(tr.Last(0)) != 3 {
		t.Error("Last(0) should return all retained")
	}
}
