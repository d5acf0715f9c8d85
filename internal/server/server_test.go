package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lens"
	"repro/internal/matview"
	"repro/internal/rdb"
	"repro/internal/sources"
)

// newTestServer builds a 2-instance deployment over one catalog with a
// lens, a shared result cache, and a materialized-view manager.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts, _ := newLayoutServer(t, false)
	return srv, ts
}

// forLayouts runs test once per cache layout: one shared cache, and one
// per instance.
func forLayouts(t *testing.T, test func(t *testing.T, perInstance bool)) {
	for _, perInstance := range []bool{false, true} {
		t.Run(fmt.Sprintf("perInstance=%v", perInstance), func(t *testing.T) { test(t, perInstance) })
	}
}

// newLayoutServer is newTestServer in either cache layout, also returning
// the database behind "crmdb" for source-side updates.
func newLayoutServer(t testing.TB, perInstance bool) (*Server, *httptest.Server, *rdb.Database) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1,'Ada','London'), (2,'Alan','Cambridge'), (3,'Grace','New York')`)
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("crmdb", db)); err != nil {
		t.Fatal(err)
	}
	// A chaos-wrapped source that flaps availability: two fetches up,
	// two down. With one retry per fetch the breaker sees occasional
	// failures without permanently opening, which is exactly the storm
	// the inspector race test wants.
	flaky, err := sources.NewXMLSource("flaky", `<flaky><t>one</t><t>two</t></flaky>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(chaos.Wrap(flaky, chaos.Flap{Up: 2, Down: 2})); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineViewQL("customers", `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	slow := core.NewSlowLog(8, 0)
	active := core.NewActiveRegistry()
	// One breaker set shared by both instances, like a deployment.
	breakers := exec.NewBreakerSet(3, 10*time.Millisecond, nil, nil)
	ecfg := core.Config{
		Slow:       slow,
		Active:     active,
		Resilience: exec.Resilience{FetchTimeout: 2 * time.Second, Retries: 1, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond},
		Breakers:   breakers,
	}
	e1 := core.New(cat, ecfg)
	e2 := core.New(cat, ecfg)
	reg := lens.NewRegistry()
	if err := reg.Publish(&lens.Lens{
		Name:  "by-city",
		Title: "Customers by city",
		Queries: []string{`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "${city}"
			CONSTRUCT <hit><name>$w</name></hit>`},
		Params: []lens.Param{{Name: "city", Required: true}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(&lens.Lens{
		Name:      "secret",
		Queries:   []string{`WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`},
		AuthToken: "s3cret",
	}); err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Policy: cluster.RoundRobin, CacheEntries: 16, CachePerInstance: perInstance}, e1, e2)
	views := matview.NewManager(e1)
	views.OnChange(c.Invalidate)
	srv := &Server{
		Cluster:    c,
		Lenses:     reg,
		Views:      views,
		AdminToken: "admin",
		Slow:       slow,
		Active:     active,
		Breakers:   breakers,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/query",
		`WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r> ORDER-BY $w`)
	if code != 200 {
		t.Fatalf("code = %d: %s", code, body)
	}
	if !strings.Contains(body, "<r>Ada</r>") || !strings.Contains(body, "<results>") {
		t.Errorf("body = %s", body)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	// GET without q is an empty query, not a method error (GET ?q= is the
	// explain-friendly form).
	if code, _ := get(t, ts.URL+"/query"); code != http.StatusBadRequest {
		t.Errorf("GET code = %d", code)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/query", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT code = %d", resp.StatusCode)
	}
	if code, _ := post(t, ts.URL+"/query", ""); code != http.StatusBadRequest {
		t.Errorf("empty code = %d", code)
	}
	if code, _ := post(t, ts.URL+"/query", "garbage"); code != http.StatusBadRequest {
		t.Errorf("bad query code = %d", code)
	}
}

func TestLensEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/lens/by-city?city=London&device=web")
	if code != 200 {
		t.Fatalf("code = %d: %s", code, body)
	}
	if !strings.Contains(body, "<h1>Customers by city</h1>") || !strings.Contains(body, "Ada") {
		t.Errorf("body = %s", body)
	}
	// Plain device.
	_, plain := get(t, ts.URL+"/lens/by-city?city=London&device=plain")
	if !strings.Contains(plain, "name=Ada") {
		t.Errorf("plain = %q", plain)
	}
	// Missing parameter.
	if code, _ := get(t, ts.URL+"/lens/by-city"); code != http.StatusBadRequest {
		t.Errorf("missing param code = %d", code)
	}
	// Unknown lens.
	if code, _ := get(t, ts.URL+"/lens/nope?city=X"); code != http.StatusNotFound {
		t.Errorf("unknown lens code = %d", code)
	}
}

func TestLensAuth(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/lens/secret"); code != http.StatusForbidden {
		t.Errorf("no token code = %d", code)
	}
	if code, _ := get(t, ts.URL+"/lens/secret?auth=s3cret"); code != 200 {
		t.Errorf("with token code = %d", code)
	}
}

func TestLensListEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := get(t, ts.URL+"/lenses")
	if !strings.Contains(body, "by-city") || !strings.Contains(body, "secret") {
		t.Errorf("lenses = %q", body)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := get(t, ts.URL+"/catalog")
	if !strings.Contains(body, "<source>crmdb</source>") || !strings.Contains(body, "<schema>customers</schema>") {
		t.Errorf("catalog = %s", body)
	}
}

func TestCachingOnQueryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	post(t, ts.URL+"/query", q)
	// Spelled with other whitespace, it is the same query to the cache.
	post(t, ts.URL+"/query", strings.ReplaceAll(q, " ", "\n  "))
	st := srv.Cluster.CacheStats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestAdminEndpoints(t *testing.T) { forLayouts(t, testAdminEndpoints) }

func testAdminEndpoints(t *testing.T, perInstance bool) {
	_, ts, _ := newLayoutServer(t, perInstance)
	// Token required.
	resp, err := http.Post(ts.URL+"/admin/materialize?schema=customers", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("no token code = %d", resp.StatusCode)
	}
	// Materialize.
	resp, _ = http.Post(ts.URL+"/admin/materialize?schema=customers&token=admin", "", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "materialized") {
		t.Errorf("materialize = %d %s", resp.StatusCode, body)
	}
	// Refresh all.
	resp, _ = http.Post(ts.URL+"/admin/refresh?token=admin", "", nil)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("refresh code = %d", resp.StatusCode)
	}
	// Stats mention the materialized view.
	_, stats := get(t, ts.URL+"/stats")
	if !strings.Contains(stats, "matview customers") {
		t.Errorf("stats = %s", stats)
	}
	// Bad schema fails.
	resp, _ = http.Post(ts.URL+"/admin/materialize?schema=nosuch&token=admin", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad schema code = %d", resp.StatusCode)
	}
}

func TestAdminDefineSchema(t *testing.T) { forLayouts(t, testAdminDefineSchema) }

func testAdminDefineSchema(t *testing.T, perInstance bool) {
	_, ts, _ := newLayoutServer(t, perInstance)
	// Define a new second-level schema over HTTP.
	view := `WHERE <cust><who>$w</who><where>"London"</where></cust> IN "customers"
	         CONSTRUCT <londoner><name>$w</name></londoner>`
	resp, err := http.Post(ts.URL+"/admin/schema?name=londoners&token=admin", "text/plain", strings.NewReader(view))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("define: %d %s", resp.StatusCode, body)
	}
	// The new schema answers immediately.
	code, out := post(t, ts.URL+"/query", `WHERE <londoner><name>$n</name></londoner> IN "londoners" CONSTRUCT <r>$n</r>`)
	if code != 200 || !strings.Contains(out, "Ada") {
		t.Errorf("query over new schema: %d %s", code, out)
	}
	// A cyclic definition is rejected and not recorded.
	resp, _ = http.Post(ts.URL+"/admin/schema?name=customers&token=admin", "text/plain",
		strings.NewReader(`WHERE <londoner><name>$n</name></londoner> IN "londoners" CONSTRUCT <cust><who>$n</who></cust>`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cycle code = %d", resp.StatusCode)
	}
	// The catalog still works (rollback happened).
	code, _ = post(t, ts.URL+"/query", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
	if code != 200 {
		t.Errorf("catalog broken after rejected cycle: %d", code)
	}
	// Bad requests.
	resp, _ = http.Post(ts.URL+"/admin/schema?token=admin", "text/plain", strings.NewReader(view))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing name code = %d", resp.StatusCode)
	}
	if code, _ := get(t, ts.URL+"/admin/schema?name=x&token=admin"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET code = %d", code)
	}
}

func TestClusterRoundRobinSpreadsLoad(t *testing.T) {
	srv, ts := newTestServer(t)
	// Distinct queries so the cache does not absorb them.
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf(`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i >= %d CONSTRUCT <r>$n</r>`, i%5)
		post(t, ts.URL+"/query", q)
	}
	loads := srv.Cluster.Loads()
	// The materialize manager runs on engine 1 too; just require both
	// engines saw work.
	if loads[0] == 0 || loads[1] == 0 {
		t.Errorf("loads = %v", loads)
	}
}

func TestClusterConcurrentDispatch(t *testing.T) {
	cat := catalog.New()
	src, _ := sources.NewXMLSource("s", `<d><a>1</a></d>`)
	cat.AddSource(src)
	e1, e2 := core.New(cat, core.Config{}), core.New(cat, core.Config{})
	c := cluster.New(cluster.Config{Policy: cluster.LeastOutstanding}, e1, e2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Query(context.Background(), `WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>`)
		}()
	}
	wg.Wait()
	if c.Instances() != 2 {
		t.Error("instances")
	}
	if got := e1.QueriesRun() + e2.QueriesRun(); got != 8 {
		t.Errorf("queries run = %d", got)
	}
}

// TestShedReturns503RetryAfter: when admission control sheds a query,
// the HTTP layer answers 503 with a Retry-After hint rather than a
// generic 400.
func TestShedReturns503RetryAfter(t *testing.T) {
	cat := catalog.New()
	gate := make(chan struct{})
	if err := cat.AddSource(&gatedSource{name: "s", gate: gate}); err != nil {
		t.Fatal(err)
	}
	e := core.New(cat, core.Config{})
	srv := &Server{
		Cluster: cluster.New(cluster.Config{Policy: cluster.RoundRobin, Capacity: 1, QueueLimit: 1}, e),
		Lenses:  lens.NewRegistry(),
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := `WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>`

	// One query holds the only slot, a second fills the queue.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
		deadline := time.Now().Add(2 * time.Second)
		for srv.Cluster.InFlight(0) != 1 || srv.Cluster.Queued() != i {
			if time.Now().After(deadline) {
				t.Fatalf("setup stalled: inflight=%d queued=%d", srv.Cluster.InFlight(0), srv.Cluster.Queued())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The third is shed.
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed code = %d, body %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", ra)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body = %q", body)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("held query code = %d", code)
		}
	}
}

func TestDebugClusterEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/query", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
	code, body := get(t, ts.URL+"/debug/cluster")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{`"policy":"round-robin"`, `"state":"healthy"`, `"instances"`} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %s in %s", want, body)
		}
	}
}

func TestAdminDrainEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	if code, _ := post(t, ts.URL+"/admin/drain?instance=1&token=admin", ""); code != http.StatusOK {
		t.Fatalf("drain code = %d", code)
	}
	st := srv.Cluster.Status()
	if st.Instances[1].State != "removed" {
		t.Errorf("instance 1 state = %q after drain", st.Instances[1].State)
	}
	// Queries keep working on the remaining instance.
	if code, _ := post(t, ts.URL+"/query", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`); code != http.StatusOK {
		t.Errorf("query after drain = %d", code)
	}
	if code, _ := post(t, ts.URL+"/admin/drain?instance=9&token=admin", ""); code != http.StatusBadRequest {
		t.Errorf("bad instance code = %d", code)
	}
	if code, _ := post(t, ts.URL+"/admin/drain?instance=0", ""); code != http.StatusForbidden {
		t.Errorf("tokenless drain code = %d", code)
	}
}

// TestAdminChangesReachEveryCache: every admin path that changes what a
// name answers — /admin/schema, /admin/materialize, /admin/refresh with
// and without a schema — reaches the cached answers of queries over that
// name and over schemas defined on top of it ("accounts" over
// "customers"), in either cache layout. Each answer is asked for twice,
// so that under round-robin both instances — and both per-instance
// caches — answer it.
func TestAdminChangesReachEveryCache(t *testing.T) {
	forLayouts(t, func(t *testing.T, perInstance bool) {
		_, ts, db := newLayoutServer(t, perInstance)
		admin := func(path, body string) {
			t.Helper()
			if code, out := post(t, ts.URL+path, body); code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, code, out)
			}
		}
		rows := func(step string, want int) {
			t.Helper()
			for i := 0; i < 2; i++ {
				code, out := post(t, ts.URL+"/query", `WHERE <account><owner>$o</owner></account> IN "accounts" CONSTRUCT <r>$o</r>`)
				if got := strings.Count(out, "<r>"); code != http.StatusOK || got != want {
					t.Fatalf("%s, ask %d: %d rows (status %d), want %d:\n%s", step, i+1, got, code, want, out)
				}
			}
		}
		admin("/admin/schema?name=accounts&token=admin", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <account><owner>$w</owner></account>`)
		rows("accounts defined", 3)
		admin("/admin/schema?name=customers&token=admin", `WHERE <customer><name>$n</name><city>"London"</city></customer> IN "crmdb"
			CONSTRUCT <cust><who>$n</who><where>"London"</where></cust>`)
		rows("a second definition of customers", 4)
		admin("/admin/materialize?schema=customers&token=admin", "")
		rows("customers materialized", 4)
		db.MustExec(`INSERT INTO customers VALUES (4,'Linus','London')`)
		rows("source updated under the local copy", 4)
		admin("/admin/refresh?schema=customers&token=admin", "")
		rows("customers refreshed", 6)
		db.MustExec(`INSERT INTO customers VALUES (5,'Barbara','Paris')`)
		admin("/admin/refresh?token=admin", "")
		rows("every view refreshed", 7)
	})
}
