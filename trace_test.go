package nimble

// End-to-end tracing acceptance: a failing fetch behind the cluster
// front end yields one tail-kept trace whose tree spans every tier —
// HTTP root, cluster admission/routing, engine phases, per-attempt
// fetch/retry spans — under a single TraceID, and that same id appears
// on the slow-query-log entry, the structured log stream, and the
// exported OTLP batch.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildTracedSystem boots a two-instance deployment with tail-only
// sampling (only errored/slow traces survive), a dead source for chaos,
// and a structured log sink.
func buildTracedSystem(t *testing.T, logs *bytes.Buffer) *System {
	t.Helper()
	sys := New(Config{
		Instances:    2,
		TraceBuffer:  32,
		TraceSample:  -1, // tail-only: a kept trace proves the tail keeps work
		TraceSeed:    7,
		Logger:       obs.NewLogger(logs, slog.LevelInfo),
		Metrics:      obs.NewRegistry(),
		FetchRetries: 2,
		RetryBackoff: time.Millisecond,
	})
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", 50, 2, 7)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("dead", `<dead><item>alpha</item></dead>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who></cust>`); err != nil {
		t.Fatal(err)
	}
	sys.WrapSources(func(src Source) Source {
		if src.Name() != "dead" {
			return nil
		}
		return chaos.Wrap(src, chaos.Script{Then: chaos.Fault{Kind: chaos.Unavailable}})
	})
	return sys
}

func TestTraceSmokeEndToEnd(t *testing.T) {
	var logs bytes.Buffer
	sys := buildTracedSystem(t, &logs)
	mem := &obs.MemExporter{}
	sys.SetTraceExporter(mem)
	defer sys.Close()
	ts := httptest.NewServer(sys.HTTPHandler("admin"))
	defer ts.Close()

	httpPost := func(path, body string, header map[string]string) (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	// A clean query is dropped by tail-only sampling.
	resp, body := httpPost("/query", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("clean query: %d %s", resp.StatusCode, body)
	}
	if sys.Traces().Len() != 0 {
		t.Fatalf("tail-only sampler kept a clean trace (%d retained)", sys.Traces().Len())
	}

	// An incoming traceparent joins the caller's trace and the response
	// echoes the identity back.
	callerTrace := "11111111222222223333333344444444"
	resp, body = httpPost("/query", `WHERE <item>$x</item> IN "dead" CONSTRUCT <r>$x</r>`,
		map[string]string{"traceparent": "00-" + callerTrace + "-aaaabbbbccccdddd-01"})
	if resp.StatusCode != 200 {
		t.Fatalf("dead query: %d %s", resp.StatusCode, body)
	}
	echo := resp.Header.Get("traceparent")
	if !strings.Contains(echo, callerTrace) {
		t.Fatalf("response traceparent %q does not join caller trace", echo)
	}

	// The failing fetch tail-keeps exactly that trace.
	if n := sys.Traces().Len(); n != 1 {
		t.Fatalf("kept traces = %d, want 1", n)
	}
	_, errKept, _ := sys.Traces().Kept()
	if errKept != 1 {
		t.Fatalf("kept by error = %d", errKept)
	}
	kept := sys.Traces().Last(1)[0]
	if kept.TraceID().String() != callerTrace {
		t.Fatalf("kept trace id %s, want %s", kept.TraceID(), callerTrace)
	}

	// One TraceID spans every tier, and the tree shows the cluster hop,
	// engine phases, and per-attempt fetch spans.
	wantSpans := map[string]bool{"request": false, "cluster": false, "admission": false,
		"engine": false, "fetch dead": false, "attempt[1]": false, "attempt[2]": false}
	kept.Walk(func(sp *obs.Span) {
		if sp.TraceID() != kept.TraceID() {
			t.Errorf("span %q has trace id %s, want %s", sp.Name(), sp.TraceID(), kept.TraceID())
		}
		if _, ok := wantSpans[sp.Name()]; ok {
			wantSpans[sp.Name()] = true
		}
	})
	for name, seen := range wantSpans {
		if !seen {
			t.Errorf("trace tree missing %q span:\n%s", name, kept.RenderText())
		}
	}
	if evs := kept.FindAll("fetch dead"); len(evs) == 0 || len(evs[0].Events()) == 0 {
		t.Error("fetch span carries no retry events")
	}

	// /debug/traces finds it by error and by source, in JSON and text.
	get := func(path string) (int, string) {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(b)
	}
	code, body := get("/debug/traces?err=1&source=dead")
	if code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	var found []struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(body), &found); err != nil {
		t.Fatalf("invalid /debug/traces JSON: %v", err)
	}
	if len(found) != 1 || found[0].TraceID != callerTrace {
		t.Fatalf("/debug/traces = %s", body)
	}
	if _, body := get("/debug/traces?err=1&format=text"); !strings.Contains(body, "trace "+callerTrace) ||
		!strings.Contains(body, "└─") {
		t.Errorf("text rendering wrong:\n%s", body)
	}
	if _, body := get("/debug/traces?source=nosuch"); strings.TrimSpace(body) != "[]" {
		t.Errorf("source filter should exclude: %s", body)
	}

	// The slow-query log entry for the dead query carries the trace id.
	slowHit := false
	for _, e := range sys.SlowQueries() {
		if e.TraceID == callerTrace {
			slowHit = true
		}
	}
	if !slowHit {
		t.Errorf("no slow-log entry with trace id %s: %+v", callerTrace, sys.SlowQueries())
	}

	// Structured log lines correlate through the same trace id.
	if !strings.Contains(logs.String(), `"trace_id":"`+callerTrace+`"`) {
		t.Errorf("log stream has no line for trace %s:\n%s", callerTrace, logs.String())
	}

	// The exporter received the kept trace (and only that one).
	sys.FlushTraces()
	spans := mem.Spans()
	if len(spans) != 1 || spans[0].TraceID().String() != callerTrace {
		t.Errorf("exported = %d spans", len(spans))
	}

	// Exemplar: the query-latency histogram links back to a trace id.
	var expo strings.Builder
	if err := sys.Metrics().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `# {trace_id="`) {
		t.Error("nimble_query_seconds buckets carry no exemplars")
	}
	assertIdle(t, sys)
}

// TestKeptTraceSetDeterministic replays the same workload against two
// deployments with the same TraceSeed and checks the head sampler keeps
// the identical trace set — the property that makes chaos-run traces
// reproducible.
func TestKeptTraceSetDeterministic(t *testing.T) {
	run := func() []string {
		sys := New(Config{
			Instances:   1,
			TraceBuffer: 256,
			TraceSample: 0.5,
			TraceSeed:   42,
			Metrics:     obs.NewRegistry(),
		})
		if err := sys.AddXMLSource("xs", `<xs><a>1</a><a>2</a></xs>`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := sys.Query(context.Background(), `WHERE <a>$x</a> IN "xs" CONSTRUCT <r>$x</r>`); err != nil {
				t.Fatal(err)
			}
		}
		var ids []string
		for _, sp := range sys.Traces().Last(0) {
			ids = append(ids, sp.TraceID().String())
		}
		return ids
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("head sampler kept %d of 50 — not discriminating", len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("kept sets differ:\n%v\n%v", a, b)
	}
}
