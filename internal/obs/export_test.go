package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestBatchQueueBatchesAndFlushes(t *testing.T) {
	reg := NewRegistry()
	mem := &MemExporter{}
	q := NewBatchQueue(mem, 16, 4, reg)
	for i := 0; i < 10; i++ {
		sp := NewSpan("q")
		sp.Finish()
		q.Enqueue(sp.Tree())
	}
	q.Flush()
	if got := len(mem.Spans()); got != 10 {
		t.Fatalf("exported %d spans", got)
	}
	for _, b := range mem.Batches() {
		if len(b) > 4 {
			t.Errorf("batch of %d exceeds batch size", len(b))
		}
	}
	if v := reg.Counter("nimble_trace_export_total").Value(); v != 10 {
		t.Errorf("export counter = %d", v)
	}
	q.Close()
	q.Close() // idempotent
	q.Flush() // no-op after close
	// Enqueue after close must not panic or block; the span is lost.
	q.Enqueue(NewSpan("late").Tree())
}

func TestBatchQueueDropsWhenFull(t *testing.T) {
	reg := NewRegistry()
	block := make(chan struct{})
	exp := exporterFunc(func([]*Span) error { <-block; return nil })
	q := NewBatchQueue(exp, 1, 1, reg)
	// First span occupies the worker, second fills the queue, the rest drop.
	for i := 0; i < 8; i++ {
		sp := NewSpan("q")
		sp.Finish()
		q.Enqueue(sp.Tree())
	}
	if q.Dropped() == 0 {
		t.Error("full queue should drop")
	}
	close(block)
	q.Close()
}

func TestBatchQueueCountsExportErrors(t *testing.T) {
	reg := NewRegistry()
	exp := exporterFunc(func([]*Span) error { return errors.New("down") })
	q := NewBatchQueue(exp, 4, 1, reg)
	sp := NewSpan("q")
	sp.Finish()
	q.Enqueue(sp.Tree())
	q.Flush()
	if v := reg.Counter("nimble_trace_export_errors_total").Value(); v != 1 {
		t.Errorf("error counter = %d", v)
	}
	if v := reg.Counter("nimble_trace_export_total").Value(); v != 0 {
		t.Errorf("failed batch counted as exported: %d", v)
	}
	q.Close()
}

type exporterFunc func([]*Span) error

func (f exporterFunc) ExportBatch(b []*Span) error { return f(b) }

func TestFileExporterOTLPShape(t *testing.T) {
	var out strings.Builder
	exp := NewWriterExporter(&out, "nimble-test")

	root := NewRootSpan("request", TraceContext{})
	child := root.StartChild("engine")
	child.SetAttr("policy", "partial")
	child.AddEvent("retry backoff", "attempt", "1")
	child.Finish()
	root.Finish()
	if err := exp.ExportBatch([]*Span{root.Tree()}); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportBatch([]*Span{root.Tree()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one JSON line per batch, got %d", len(lines))
	}

	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Scope struct {
					Name string `json:"name"`
				} `json:"scope"`
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
					Events       []struct {
						Name string `json:"name"`
					} `json:"events"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &req); err != nil {
		t.Fatalf("invalid OTLP JSON: %v\n%s", err, lines[0])
	}
	rs := req.ResourceSpans[0]
	if rs.Resource.Attributes[0].Key != "service.name" || rs.Resource.Attributes[0].Value.StringValue != "nimble-test" {
		t.Errorf("resource attrs = %+v", rs.Resource.Attributes)
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("flattened spans = %d", len(spans))
	}
	if spans[0].Name != "request" || spans[0].ParentSpanID != "" {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Name != "engine" || spans[1].ParentSpanID != spans[0].SpanID {
		t.Errorf("child not linked by parentSpanId: %+v", spans[1])
	}
	if spans[1].TraceID != spans[0].TraceID {
		t.Error("spans of one trace must share traceId")
	}
	if len(spans[1].Events) != 1 || spans[1].Events[0].Name != "retry backoff" {
		t.Errorf("events = %+v", spans[1].Events)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileExporterAppendsToFile(t *testing.T) {
	path := t.TempDir() + "/traces.jsonl"
	exp, err := NewFileExporter(path, "svc")
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpan("q")
	sp.Finish()
	if err := exp.ExportBatch([]*Span{sp.Tree()}); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Error("second close should be a no-op:", err)
	}
}
