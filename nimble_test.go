package nimble

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/sources"
)

// buildSystem assembles the customer-360 deployment used by the facade
// tests: two relational sources, an XML feed, a directory, and two
// mediated schemas.
func buildSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	sys, _ := buildSystemDB(t, cfg)
	return sys
}

// buildSystemDB is buildSystem also returning the database behind
// "crmdb", for source-side updates.
func buildSystemDB(t testing.TB, cfg Config) (*System, *Database) {
	t.Helper()
	sys := New(cfg)

	crm := NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	crm.MustExec(`INSERT INTO customers VALUES (1,'Ada Lovelace','London'), (2,'Alan Turing','Cambridge'), (3,'Grace Hopper','New York')`)
	if err := sys.AddRelationalSource("crmdb", crm); err != nil {
		t.Fatal(err)
	}

	sales := NewDatabase("sales")
	sales.MustExec(`CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, total FLOAT)`)
	sales.MustExec(`INSERT INTO orders VALUES (100,1,250.0), (101,1,75.5), (102,2,120.0), (103,3,310.25)`)
	if err := sys.AddRelationalSource("salesdb", sales); err != nil {
		t.Fatal(err)
	}

	if err := sys.AddXMLSource("tickets", `<tickets>
		<ticket pri="high"><cust>1</cust><subject>Overheat</subject></ticket>
		<ticket pri="low"><cust>2</cust><subject>Manual</subject></ticket>
	</tickets>`); err != nil {
		t.Fatal(err)
	}

	dir, err := sys.AddDirectorySource("staff", "org")
	if err != nil {
		t.Fatal(err)
	}
	dir.Put("support/eva", map[string]string{"handles": "London"})

	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("accounts", `
		WHERE <cust><cid>$i</cid><who>$n</who></cust> IN "customers",
		      <order><cust>$i</cust><total>$t</total></order> IN "salesdb"
		CONSTRUCT <account><owner>$n</owner><value>$t</value></account>`); err != nil {
		t.Fatal(err)
	}
	return sys, crm
}

// forCacheLayouts runs test in both cache layouts over two instances: one
// shared cache, and one cache per instance with affinity routing, so that
// a repeated query goes back to the instance whose cache holds it.
func forCacheLayouts(t *testing.T, cfg Config, test func(t *testing.T, cfg Config)) {
	for _, perInstance := range []bool{false, true} {
		c := cfg
		c.Instances = 2
		c.CachePerInstance = perInstance
		if perInstance {
			c.RoutePolicy = "affinity"
		}
		t.Run(fmt.Sprintf("perInstance=%v", perInstance), func(t *testing.T) { test(t, c) })
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	sys := buildSystem(t, Config{})
	res, err := sys.Query(context.Background(), `
		WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "London"
		CONSTRUCT <r>$w</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || !res.Complete {
		t.Fatalf("res = %+v", res)
	}
	xml := res.XML()
	if !strings.Contains(xml, "<r>Ada Lovelace</r>") {
		t.Errorf("xml = %s", xml)
	}
}

func TestFacadeHierarchicalSchema(t *testing.T) {
	sys := buildSystem(t, Config{})
	res, err := sys.Query(context.Background(), `
		WHERE <account><owner>$o</owner><value>$v</value></account> IN "accounts", $v > 200
		CONSTRUCT <big>$o</big> ORDER-BY $v DESCENDING`)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, v := range res.Values {
		got = append(got, strings.TrimSpace(stringify(v)))
	}
	if len(got) != 2 || got[0] != "Grace Hopper" || got[1] != "Ada Lovelace" {
		t.Errorf("got = %v", got)
	}
}

func stringify(v Value) string {
	if n, ok := v.(*Node); ok {
		return n.Text()
	}
	return v.String()
}

func TestFacadeSchemaCycleRejected(t *testing.T) {
	sys := buildSystem(t, Config{})
	if err := sys.DefineSchema("a2", `WHERE <x>$v</x> IN "b2" CONSTRUCT <y>$v</y>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("b2", `WHERE <y>$v</y> IN "a2" CONSTRUCT <x>$v</x>`); err == nil {
		t.Error("cycle should be rejected at definition time")
	}
}

func TestFacadeCaching(t *testing.T) {
	sys := buildSystem(t, Config{CacheEntries: 8})
	q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	if _, err := sys.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Hits != 1 {
		t.Errorf("cache stats = %+v", st)
	}
	// Materializing invalidates queries over the schema.
	if err := sys.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if sys.CacheStats().Hits != 1 {
		t.Error("invalidation on materialize failed")
	}
}

func TestFacadeMaterializeAcrossInstances(t *testing.T) {
	sys := buildSystem(t, Config{Instances: 3})
	if err := sys.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if got := sys.Materialized(); len(got) != 1 || got[0] != "customers" {
		t.Fatalf("materialized = %v", got)
	}
	// Every instance must see the local copy: run enough queries to hit
	// all instances through the balancer.
	for i := 0; i < 9; i++ {
		res, err := sys.Query(context.Background(), `
			WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != 3 {
			t.Fatalf("query %d: %d values", i, len(res.Values))
		}
	}
	sys.Drop("customers")
	if len(sys.Materialized()) != 0 {
		t.Error("drop failed")
	}
}

func TestFacadeRefresh(t *testing.T) {
	sys := buildSystem(t, Config{})
	if err := sys.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(context.Background(), "nosuch"); err == nil {
		t.Error("refresh of unknown schema should fail")
	}
}

func TestFacadeLens(t *testing.T) {
	sys := buildSystem(t, Config{})
	err := sys.PublishLens(&Lens{
		Name:  "city",
		Title: "By city",
		Queries: []string{`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "${city}"
			CONSTRUCT <hit><name>$w</name></hit>`},
		Params: []LensParam{{Name: "city", Required: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	html, err := sys.RenderLens(context.Background(), "city", map[string]string{"city": "London"}, DeviceWeb, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "Ada Lovelace") || !strings.Contains(html, "<h1>") {
		t.Errorf("html = %s", html)
	}
	if _, err := sys.RenderLens(context.Background(), "nosuch", nil, DeviceWeb, ""); err == nil {
		t.Error("unknown lens should fail")
	}
}

func TestFacadeDynamicCleaningInQueries(t *testing.T) {
	sys := New(Config{})
	if err := sys.AddXMLSource("feed", `<feed>
		<rec><name>Dr. Bob Smith</name></rec>
		<rec><name>robert  smith</name></rec>
	</feed>`); err != nil {
		t.Fatal(err)
	}
	// normalize_name makes the two spellings equal at query time —
	// "virtually-clean data" (§3.2).
	res, err := sys.Query(context.Background(), `
		WHERE <rec><name>$a</name></rec> IN "feed",
		      <rec><name>$b</name></rec> IN "feed",
		      normalize_name($a) = normalize_name($b), $a != $b
		CONSTRUCT <dup><x>$a</x><y>$b</y></dup>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 { // both orderings
		t.Errorf("duplicates found = %d", len(res.Values))
	}
	// similarity() is available too.
	res, err = sys.Query(context.Background(), `
		WHERE <rec><name>$a</name></rec> IN "feed", similarity($a, "Dr. Bob Smith") >= 1
		CONSTRUCT <r>$a</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Errorf("similarity matches = %d", len(res.Values))
	}
}

func TestFacadeCleaningFlowWithSystemState(t *testing.T) {
	sys := New(Config{})
	recs := []Record{
		{Source: "a", ID: "1", Fields: map[string]string{"name": "Bob Smith", "city": "x"}},
		{Source: "b", ID: "1", Fields: map[string]string{"name": "Robert Smith", "city": "x"}},
	}
	flow := &Flow{
		Name:            "t",
		Normalize:       map[string]clean.Normalizer{"name": clean.NormalizeName},
		BlockKey:        func(r Record) string { return r.Get("city") },
		Matcher:         clean.CompositeMatcher([]clean.FieldWeight{{Field: "name", Matcher: clean.LevenshteinSimilarity, Weight: 1}}),
		MatchThreshold:  0.95,
		ReviewThreshold: 0.5,
	}
	res, err := sys.RunCleaningFlow(flow, recs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if sys.Concordance().Len() == 0 {
		t.Error("auto decision should be recorded in the system concordance DB")
	}
	if sys.Lineage().Len() == 0 {
		t.Error("lineage should be recorded")
	}
}

func TestFacadePartialResultsAndFailPolicy(t *testing.T) {
	mk := func(cfg Config) *System {
		sys := New(cfg)
		sys.AddXMLSource("live", `<d><row><v>1</v></row></d>`)
		// A source that is always down: wrap a live one with
		// availability 0.
		inner := mustXMLSource(t, "deadsrc", `<dead><row><v>9</v></row></dead>`)
		sys.AddSource(WrapNetwork(inner, 0, 0, 1))
		return sys
	}
	q := `WHERE <row><v>$a</v></row> IN "live", <row><v>$b</v></row> IN "deadsrc" CONSTRUCT <r>$a</r>`

	sys := mk(Config{})
	res, err := sys.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || len(res.FailedSources) != 1 || res.FailedSources[0] != "deadsrc" {
		t.Errorf("partial report = %+v", res)
	}
	if !strings.Contains(res.XML(), `complete="false"`) {
		t.Error("XML output should flag incompleteness")
	}

	sysFail := mk(Config{FailOnUnavailable: true})
	if _, err := sysFail.Query(context.Background(), q); err == nil {
		t.Error("fail policy should error")
	}

	// Two instances over one catalog, cache on, as nimbled ships: the
	// down source costs only the queries that read it, which answer
	// flagged, and no instance leaves rotation.
	sysTwo := mk(Config{Instances: 2, CacheEntries: 64})
	qLive := `WHERE <row><v>$a</v></row> IN "live" CONSTRUCT <r>$a</r>`
	for i := 0; i < 2; i++ { // an incomplete answer is never cached: both instances run one
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := sysTwo.Query(ctx, qLive)
		cancel()
		if err != nil {
			t.Fatalf("live-only query on 2 instances: %v", err)
		}
		if !res.Complete || len(res.Values) != 1 {
			t.Errorf("live-only query: complete=%v values=%d, want a complete single row", res.Complete, len(res.Values))
		}
		ctx, cancel = context.WithTimeout(context.Background(), time.Second)
		res, err = sysTwo.Query(ctx, q)
		cancel()
		if err != nil {
			t.Fatalf("mixed query on 2 instances: %v", err)
		}
		if res.Complete || len(res.FailedSources) != 1 || res.FailedSources[0] != "deadsrc" {
			t.Errorf("mixed query on 2 instances: partial report = %+v", res)
		}
		if !strings.Contains(res.XML(), `complete="false"`) {
			t.Error("mixed query on 2 instances: XML output should flag incompleteness")
		}
	}
	for _, inst := range sysTwo.Cluster().Status().Instances {
		if inst.State != "healthy" || inst.QueriesRun == 0 {
			t.Errorf("instance %s: state = %q after %d queries, want healthy and used", inst.Name, inst.State, inst.QueriesRun)
		}
	}
}

func mustXMLSource(t testing.TB, name, text string) Source {
	t.Helper()
	src, err := sources.NewXMLSource(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestFacadeHTTPHandler(t *testing.T) {
	sys := buildSystem(t, Config{CacheEntries: 4})
	h := sys.HTTPHandler("admin")
	if h == nil {
		t.Fatal("nil handler")
	}
}

func TestFacadeListings(t *testing.T) {
	sys := buildSystem(t, Config{})
	if got := sys.Sources(); len(got) != 4 {
		t.Errorf("sources = %v", got)
	}
	if got := sys.Schemas(); len(got) != 2 {
		t.Errorf("schemas = %v", got)
	}
	if sys.Instances() != 1 || sys.Engine(0) == nil {
		t.Error("instances")
	}
}

func TestFacadeCustomNormalizer(t *testing.T) {
	sys := New(Config{})
	sys.AddXMLSource("d", `<d><r><v>ABC-123</v></r></d>`)
	sys.CleanRegistry().RegisterNormalizer("sku", func(s string) string {
		return strings.ReplaceAll(strings.ToLower(s), "-", "")
	})
	sys.RegisterCleaningFunctions()
	res, err := sys.Query(context.Background(), `
		WHERE <r><v>$v</v></r> IN "d", normalize_sku($v) = "abc123"
		CONSTRUCT <hit>$v</hit>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Errorf("hits = %d", len(res.Values))
	}
}

func TestFacadeCSVAndXMLHelpers(t *testing.T) {
	sys := New(Config{})
	if err := sys.AddCSVSource("feed", strings.NewReader("id,name\n1,Ada\n2,Alan\n")); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(context.Background(), `
		WHERE <row><name>$n</name></row> IN "feed", $n = "Ada" CONSTRUCT <r>$n</r>`)
	if err != nil || len(res.Values) != 1 {
		t.Fatalf("csv query: %v, %d", err, len(res.Values))
	}
	if err := sys.AddCSVSource("bad", strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}

	src, err := NewXMLSource("x", `<x><a>1</a></x>`)
	if err != nil || src.Name() != "x" {
		t.Fatalf("NewXMLSource: %v", err)
	}
	if _, err := NewXMLSource("bad", `<a><b></a>`); err == nil {
		t.Error("bad XML should fail")
	}

	doc, err := ParseXML(`<d><i>1</i></d>`)
	if err != nil {
		t.Fatal(err)
	}
	if s := SerializeXML(doc, 2); !strings.Contains(s, "<i>1</i>") {
		t.Errorf("serialize = %q", s)
	}
}

func TestFacadeResultDocument(t *testing.T) {
	sys := buildSystem(t, Config{})
	res, err := sys.Query(context.Background(), `
		WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if doc.Name != "results" || len(doc.ChildrenNamed("r")) != 3 {
		t.Errorf("document = %s", doc.String())
	}
}

func TestFacadeAccessors(t *testing.T) {
	sys := buildSystem(t, Config{Instances: 2})
	if sys.Cluster() == nil || sys.Cluster().Instances() != 2 {
		t.Error("Cluster accessor")
	}
	if sys.Views() == nil {
		t.Error("Views accessor")
	}
	if got := sys.CacheStats(); got.Hits != 0 || got.Entries != 0 {
		t.Error("CacheStats on cacheless system should be zero")
	}
	if err := sys.DefineSchema("bad", "not xmlql"); err == nil {
		t.Error("bad view text should fail")
	}
}

func TestFacadeDropInvalidatesCache(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 8}, func(t *testing.T, cfg Config) {
		sys := buildSystem(t, cfg)
		ctx := context.Background()
		if err := sys.Materialize(ctx, "customers"); err != nil {
			t.Fatal(err)
		}
		q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
		sys.Query(ctx, q)
		sys.Drop("customers")
		sys.Query(ctx, q)
		if sys.CacheStats().Hits != 0 {
			t.Error("drop should invalidate cached schema queries")
		}
	})
}

func TestFacadeCacheTTL(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 4, CacheTTL: time.Nanosecond}, func(t *testing.T, cfg Config) {
		sys := buildSystem(t, cfg)
		q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
		sys.Query(context.Background(), q)
		time.Sleep(time.Millisecond)
		sys.Query(context.Background(), q)
		if sys.CacheStats().Hits != 0 {
			t.Error("TTL should have expired the entry")
		}
	})
}

// rowsOf runs q and returns how many values it answered with.
func rowsOf(t *testing.T, sys *System, q string) int {
	t.Helper()
	res, err := sys.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Values)
}

const (
	custNames  = `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	ownerNames = `WHERE <account><owner>$o</owner></account> IN "accounts" CONSTRUCT <r>$o</r>`
)

// TestFacadeRefreshReachesCache: a refreshed view's new answer reaches
// the next query in either cache layout, by name and refreshing all.
func TestFacadeRefreshReachesCache(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 8}, func(t *testing.T, cfg Config) {
		sys, crm := buildSystemDB(t, cfg)
		ctx := context.Background()
		if err := sys.Materialize(ctx, "customers"); err != nil {
			t.Fatal(err)
		}
		if n := rowsOf(t, sys, custNames); n != 3 {
			t.Fatalf("%d rows before the update", n)
		}
		crm.MustExec(`INSERT INTO customers VALUES (4,'Edgar Codd','Oxford')`)
		if err := sys.Refresh(ctx, "customers"); err != nil {
			t.Fatal(err)
		}
		if n := rowsOf(t, sys, custNames); n != 4 {
			t.Errorf("%d rows after Refresh(customers), want 4", n)
		}
		crm.MustExec(`INSERT INTO customers VALUES (5,'Barbara Liskov','Boston')`)
		if err := sys.Refresh(ctx, ""); err != nil {
			t.Fatal(err)
		}
		if n := rowsOf(t, sys, custNames); n != 5 {
			t.Errorf("%d rows after Refresh(all), want 5", n)
		}
	})
}

// TestFacadeDefineSchemaReachesCache: a definition added to "customers"
// changes what it answers, and what "accounts", defined over it, answers;
// neither may come from the cache afterwards.
func TestFacadeDefineSchemaReachesCache(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 8}, func(t *testing.T, cfg Config) {
		sys := buildSystem(t, cfg)
		for _, q := range []string{custNames, ownerNames, custNames, ownerNames} {
			rowsOf(t, sys, q)
		}
		if st := sys.CacheStats(); st.Hits != 2 {
			t.Fatalf("cache stats %+v, want both repeats to hit", st)
		}
		// Ticket holders join the customers: two more, customers 1 and 2,
		// with three orders between them.
		if err := sys.DefineSchema("customers", `
			WHERE <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
			CONSTRUCT <cust><cid>$i</cid><who>$s</who></cust>`); err != nil {
			t.Fatal(err)
		}
		if n := rowsOf(t, sys, custNames); n != 5 {
			t.Errorf("customers: %d rows, want 5", n)
		}
		if n := rowsOf(t, sys, ownerNames); n != 7 {
			t.Errorf("accounts over customers: %d rows, want 7", n)
		}
	})
}

// TestFacadeWhitespaceVariantsShareAnEntry: spellings of one query that
// differ only in whitespace are one cache entry in either layout — the
// key affinity routing hashes, too.
func TestFacadeWhitespaceVariantsShareAnEntry(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 8}, func(t *testing.T, cfg Config) {
		sys := buildSystem(t, cfg)
		rowsOf(t, sys, custNames)
		rowsOf(t, sys, "\n  "+strings.ReplaceAll(custNames, " ", "\t \n")+"  ")
		if st := sys.CacheStats(); st.Hits != 1 || st.Entries != 1 {
			t.Errorf("cache stats %+v, want the second spelling to hit the first's entry", st)
		}
	})
}

// TestFacadeRenderLensConcurrent renders one lens from eight goroutines
// with the cache on, so every call after the first is answered from the
// same cached nodes. Under -race, a lens run that re-parents or
// re-finalizes those nodes instead of a copy of them is a reported race.
func TestFacadeRenderLensConcurrent(t *testing.T) {
	forCacheLayouts(t, Config{CacheEntries: 8}, func(t *testing.T, cfg Config) {
		sys := buildSystem(t, cfg)
		if err := sys.PublishLens(&Lens{
			Name:    "all",
			Title:   "All customers",
			Queries: []string{custNames, ownerNames},
		}); err != nil {
			t.Fatal(err)
		}
		want, err := sys.RenderLens(context.Background(), "all", nil, DeviceXML, "")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got, err := sys.RenderLens(context.Background(), "all", nil, DeviceXML, "")
					if err != nil || got != want {
						t.Errorf("render changed (error %v):\n%s\nwant\n%s", err, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if st := sys.CacheStats(); st.Hits < 8*20*2 {
			t.Errorf("cache stats %+v: the renders should have been served from the cache", st)
		}
	})
}

// TestLensValuesShareOnePreparedEntry: a lens is one query shape
// whatever its parameter values, so the engine prepares it once: the
// first call parses and unfolds, the next two bind their city into the
// prepared rewrites, and each answers its own city.
func TestLensValuesShareOnePreparedEntry(t *testing.T) {
	sys := buildSystem(t, Config{})
	if err := sys.PublishLens(&Lens{
		Name:    "by-city",
		Queries: []string{`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = '${city}' CONSTRUCT <r>$w</r>`},
		Params:  []LensParam{{Name: "city", Required: true}},
	}); err != nil {
		t.Fatal(err)
	}
	before := sys.Engine(0).PreparedStats()
	for _, tc := range [][2]string{{"London", "Ada Lovelace"}, {"Cambridge", "Alan Turing"}, {"New York", "Grace Hopper"}} {
		got, err := sys.RenderLens(context.Background(), "by-city", map[string]string{"city": tc[0]}, DevicePlain, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != tc[1]+"\n" {
			t.Errorf("city %s: %q, want %s", tc[0], got, tc[1])
		}
	}
	after := sys.Engine(0).PreparedStats()
	if got := [3]int64{after.Misses - before.Misses, after.Hits - before.Hits, int64(after.Entries - before.Entries)}; got != [3]int64{1, 2, 1} {
		t.Errorf("prepared misses, hits, entries grew by %v, want [1 2 1]", got)
	}
}

// TestFacadeRegisterFunctionsWhileQuerying re-exports the cleaning
// functions in a loop while queries call similarity(). Under -race, a
// registration that writes the function map running queries read is a
// reported race.
func TestFacadeRegisterFunctionsWhileQuerying(t *testing.T) {
	sys := New(Config{Instances: 2})
	if err := sys.AddXMLSource("feed", `<feed><rec><name>Ada</name></rec><rec><name>Alan</name></rec></feed>`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				sys.RegisterCleaningFunctions()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := sys.Query(context.Background(), `
					WHERE <rec><name>$a</name></rec> IN "feed", similarity($a, "Ada") >= 1
					CONSTRUCT <r>$a</r>`)
				if err != nil || len(res.Values) != 1 {
					t.Errorf("similarity query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
}
