package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lens"
	"repro/internal/matview"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// newObsServer builds a deployment with an isolated metrics registry and
// trace store, so assertions do not race with other tests through the
// default registry; capacity caps each instance (0 = unbounded).
func newObsServer(t testing.TB, capacity int) (*Server, *httptest.Server, *obs.Registry, *obs.TraceStore) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1,'Ada','London'), (2,'Alan','Cambridge'), (3,'Grace','New York')`)
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("crmdb", db)); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineViewQL("customers", `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTraceStore(obs.StoreConfig{Limit: 8})
	ecfg := core.Config{Metrics: reg, Traces: tr}
	e1, e2 := core.New(cat, ecfg), core.New(cat, ecfg)
	c := cluster.New(cluster.Config{Policy: cluster.RoundRobin, Metrics: reg, Capacity: capacity, CacheEntries: 16}, e1, e2)
	views := matview.NewManager(e1)
	views.SetMetrics(reg)
	views.OnChange(c.Invalidate)
	srv := &Server{
		Cluster:    c,
		Lenses:     lens.NewRegistry(),
		Views:      views,
		AdminToken: "admin",
		Metrics:    reg,
		Traces:     tr,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg, tr
}

const obsQuery = `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`

func TestStatsEndpointOutput(t *testing.T) {
	_, ts, _, _ := newObsServer(t, 0)
	post(t, ts.URL+"/query", obsQuery)
	post(t, ts.URL+"/query", obsQuery) // cache hit
	code, body := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, "engine[0] queries=") || !strings.Contains(body, "engine[1] queries=") {
		t.Errorf("stats missing engine lines:\n%s", body)
	}
	if !strings.Contains(body, "cache hits=1 misses=1 entries=1") {
		t.Errorf("stats missing cache line:\n%s", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := newObsServer(t, 0)
	post(t, ts.URL+"/query", obsQuery)
	post(t, ts.URL+"/query", obsQuery) // cache hit
	// Materialize so the matview metrics appear.
	resp, err := httpPost(ts.URL + "/admin/materialize?schema=customers&token=admin")
	if err != nil || resp != 200 {
		t.Fatalf("materialize: %d %v", resp, err)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{
		"# TYPE nimble_queries_total counter",
		"nimble_queries_total 1",
		"nimble_query_seconds_bucket",
		"nimble_query_seconds_count 1",
		// 2 fetches: one for the uncached query, one for materialization.
		`nimble_fetch_seconds_count{source="crmdb"} 2`,
		`nimble_fetch_total{source="crmdb",outcome="ok"} 2`,
		"nimble_qcache_hits_total 1",
		"nimble_qcache_misses_total 1",
		"nimble_matview_refresh_total 1",
		`nimble_matview_staleness_seconds{schema="customers"}`,
		`nimble_cluster_inflight{instance="0"} 0`,
		`nimble_cluster_inflight{instance="1"} 0`,
		`nimble_http_requests_total{endpoint="query"} 2`,
		`nimble_http_request_seconds_count{endpoint="query"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

func httpPost(url string) (int, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func TestTraceLastEndpoint(t *testing.T) {
	_, ts, _, tr := newObsServer(t, 0)
	post(t, ts.URL+"/query", obsQuery)
	post(t, ts.URL+"/query", obsQuery) // cache hit: root span only, no engine subtree
	if tr.Len() != 2 {
		t.Fatalf("trace store retained %d traces", tr.Len())
	}
	code, body := get(t, ts.URL+"/debug/trace/last")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var spans []struct {
		Name     string            `json:"name"`
		TraceID  string            `json:"trace_id"`
		Attrs    map[string]string `json:"attrs"`
		Children []json.RawMessage `json:"children"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(spans) != 2 || spans[0].Name != "request" || spans[1].Name != "request" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].TraceID == "" || spans[0].TraceID == spans[1].TraceID {
		t.Errorf("trace ids not distinct: %q %q", spans[0].TraceID, spans[1].TraceID)
	}
	// Most recent first: the cache hit stops at the cluster hop with no
	// engine subtree, the real execution underneath it has one.
	engineSpans := func(children []json.RawMessage) (n int) {
		for _, c := range children {
			n += strings.Count(string(c), `"name":"engine"`)
		}
		return n
	}
	if n := engineSpans(spans[0].Children); n != 0 || !strings.Contains(fmt.Sprintf("%s", spans[0].Children), `"cache_hit":"true"`) {
		t.Errorf("cache-hit trace has %d engine spans, or no cache_hit mark:\n%s", n, body)
	}
	if engineSpans(spans[1].Children) == 0 {
		t.Error("executed trace has no engine subtree")
	}
	if !strings.Contains(body, `"complete":"true"`) {
		t.Errorf("engine span attrs missing from trace:\n%s", body)
	}
	// XML format and the n limit.
	post(t, ts.URL+"/query", obsQuery+" ORDER-BY $w")
	_, xmlBody := get(t, ts.URL+"/debug/trace/last?n=1&format=xml")
	if !strings.Contains(xmlBody, `<span name="request"`) || strings.Count(xmlBody, `name="request"`) != 1 {
		t.Errorf("xml traces = %s", xmlBody)
	}
}

func TestProfileQueryOption(t *testing.T) {
	srv, ts, _, _ := newObsServer(t, 0)
	// Warm the cache; profile must bypass it and still run the engine.
	post(t, ts.URL+"/query", obsQuery)
	code, body := post(t, ts.URL+"/query?profile=1", obsQuery)
	if code != 200 {
		t.Fatalf("code = %d: %s", code, body)
	}
	if !strings.Contains(body, "<r>Ada</r>") {
		t.Errorf("profiled query lost its results:\n%s", body)
	}
	if !strings.Contains(body, "<profile>") || !strings.Contains(body, `<span name="engine"`) {
		t.Errorf("no embedded profile:\n%s", body)
	}
	// The per-source fetch span agrees with the completeness report:
	// crmdb answered with 3 rows, no error, not local.
	if !strings.Contains(body, `source="crmdb"`) {
		t.Errorf("no fetch span for crmdb:\n%s", body)
	}
	if !strings.Contains(body, `rows="3"`) || !strings.Contains(body, `local="false"`) {
		t.Errorf("fetch span flags wrong:\n%s", body)
	}
	if strings.Contains(body, `error=`) {
		t.Errorf("unexpected error attr:\n%s", body)
	}
	// Cache stats: the profiled run did not consume the cached entry.
	if st := srv.Cluster.CacheStats(); st.Hits != 0 {
		t.Errorf("profiled query hit the cache: %+v", st)
	}
}

// gatedSource blocks every fetch until the gate closes.
type gatedSource struct {
	name string
	gate chan struct{}
}

func (g *gatedSource) Name() string                       { return g.name }
func (g *gatedSource) Capabilities() catalog.Capabilities { return catalog.Capabilities{} }
func (g *gatedSource) Fetch(ctx context.Context, _ catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, catalog.Cost{}, ctx.Err()
	}
	b := xmldm.NewBuilder()
	return b.Elem(g.name, b.Elem("a", "1")), catalog.Cost{RowsReturned: 1}, nil
}

func TestSetCapacityBlocksExcessQueries(t *testing.T) {
	cat := catalog.New()
	gate := make(chan struct{})
	if err := cat.AddSource(&gatedSource{name: "s", gate: gate}); err != nil {
		t.Fatal(err)
	}
	e := core.New(cat, core.Config{Metrics: obs.NewRegistry()})
	b := cluster.New(cluster.Config{Policy: cluster.RoundRobin, Capacity: 1}, e)
	q := `WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>`

	done1 := make(chan error, 1)
	go func() {
		_, err := b.Query(context.Background(), q)
		done1 <- err
	}()
	// Wait until the first query holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for b.InFlight(0) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never started")
		}
		time.Sleep(time.Millisecond)
	}
	// The second query must block on the capacity slot, not execute.
	done2 := make(chan error, 1)
	go func() {
		_, err := b.Query(context.Background(), q)
		done2 <- err
	}()
	select {
	case err := <-done2:
		t.Fatalf("second query ran over capacity: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := b.InFlight(0); n != 1 {
		t.Errorf("inflight = %d while slot held", n)
	}
	// A waiter whose context dies gives up without a slot.
	ctx, cancel := context.WithCancel(context.Background())
	done3 := make(chan error, 1)
	go func() {
		_, err := b.Query(ctx, q)
		done3 <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done3; err != context.Canceled {
		t.Errorf("cancelled waiter err = %v", err)
	}
	// Release the gate: both held queries complete.
	close(gate)
	if err := <-done1; err != nil {
		t.Errorf("first query: %v", err)
	}
	if err := <-done2; err != nil {
		t.Errorf("second query: %v", err)
	}
	if n := b.InFlight(0); n != 0 {
		t.Errorf("inflight after drain = %d", n)
	}
}

// TestConcurrentQueriesUnderCapacity exercises the balancer, metrics,
// and tracing paths concurrently — the server-side half of the race
// coverage (run under -race via `make check`).
func TestConcurrentQueriesUnderCapacity(t *testing.T) {
	_, ts, reg, _ := newObsServer(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No t.Fatal from goroutines: post inline.
			resp, err := http.Post(ts.URL+"/query?profile=1", "text/plain", strings.NewReader(obsQuery))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("code = %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if n := reg.Counter("nimble_queries_total").Value(); n != 16 {
		t.Errorf("queries_total = %d", n)
	}
	if c := reg.Histogram("nimble_query_seconds").Count(); c != 16 {
		t.Errorf("latency count = %d", c)
	}
}
