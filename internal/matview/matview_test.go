package matview

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// newEnv builds an engine with a relational source and a "customers"
// mediated schema, returning the engine, the DB (for updates), and the
// count of remote fetches so far.
func newEnv(t testing.TB) (*core.Engine, *rdb.Database, func() int64) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada'), (2, 'Alan')`)
	cat := catalog.New()
	meter := obs.NewRegistry()
	if err := cat.AddSource(sources.Instrument(sources.NewRelationalSource("crmdb", db), meter)); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineViewQL("customers",
		`WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <cust><who>$n</who></cust>`); err != nil {
		t.Fatal(err)
	}
	fetched := meter.Histogram("nimble_source_fetch_seconds", "source", "crmdb")
	return core.New(cat, core.Config{}), db, fetched.Count
}

const custQuery = `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r> ORDER-BY $w`

func TestMaterializeServesLocally(t *testing.T) {
	e, _, fetches := newEnv(t)
	m := NewManager(e)
	if err := m.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	before := fetches()
	res, err := e.Query(context.Background(), custQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("values = %d", len(res.Values))
	}
	if n := fetches() - before; n != 0 {
		t.Errorf("remote fetches = %d, want 0", n)
	}
	entries := m.Entries()
	if len(entries) != 1 || entries[0].Hits == 0 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestStalenessAndManualRefresh(t *testing.T) {
	e, db, _ := newEnv(t)
	m := NewManager(e)
	if err := m.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	// Source-side update: the local copy is now stale.
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)
	res, _ := e.Query(context.Background(), custQuery)
	if len(res.Values) != 2 {
		t.Fatalf("stale copy should still answer with old data, got %d", len(res.Values))
	}
	if err := m.Refresh(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	res, _ = e.Query(context.Background(), custQuery)
	if len(res.Values) != 3 {
		t.Errorf("after refresh: %d values", len(res.Values))
	}
	if err := m.Refresh(context.Background(), "nosuch"); err == nil {
		t.Error("refreshing unmaterialized schema should fail")
	}
}

func TestTTLModes(t *testing.T) {
	e, db, _ := newEnv(t)
	m := NewManager(e)
	now := time.Unix(1000, 0)
	m.Clock = func() time.Time { return now }
	m.TTL = time.Minute
	if err := m.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)

	// Fresh: local copy answers.
	res, _ := e.Query(context.Background(), custQuery)
	if len(res.Values) != 2 {
		t.Fatalf("fresh: %d", len(res.Values))
	}

	// Stale + RefreshStale: miss, back to sources.
	now = now.Add(2 * time.Minute)
	m.Mode = RefreshStale
	res, _ = e.Query(context.Background(), custQuery)
	if len(res.Values) != 3 {
		t.Errorf("RefreshStale should fall through to sources: %d", len(res.Values))
	}

	// Stale + RefreshOnDemand: refresh then answer locally.
	db.MustExec(`INSERT INTO customers VALUES (4, 'Edsger')`)
	m.Mode = RefreshOnDemand
	res, _ = e.Query(context.Background(), custQuery)
	if len(res.Values) != 4 {
		t.Errorf("RefreshOnDemand should see the update: %d", len(res.Values))
	}

	// Stale + RefreshManual: stale data keeps serving.
	db.MustExec(`INSERT INTO customers VALUES (5, 'Barbara')`)
	m.Mode = RefreshManual
	now = now.Add(2 * time.Minute)
	res, _ = e.Query(context.Background(), custQuery)
	if len(res.Values) != 4 {
		t.Errorf("RefreshManual should serve stale: %d", len(res.Values))
	}

	if st, ok := m.Staleness("customers"); !ok || st != 2*time.Minute {
		t.Errorf("staleness = %v, %v", st, ok)
	}
}

// TestPreparedQueriesFollowTheStore: the engine prepares a query's
// unfolding once per shape, and what the store holds decides it (a held
// schema is not unfolded). Installing a store, and every change to what
// it holds — materialize, the TTL turning an entry stale under
// RefreshStale with no event at all, a refresh, a drop — makes the next
// call of the shape unfold again and answer from where the data now is;
// with no change, calls bind.
func TestPreparedQueriesFollowTheStore(t *testing.T) {
	e, db, fetches := newEnv(t)
	ctx := context.Background()
	call := 0
	step := func(what string, wantRows int, wantMiss, wantRemote bool) {
		t.Helper()
		call++
		before, remote := e.PreparedStats(), fetches()
		res, err := e.Query(ctx, fmt.Sprintf(`WHERE <cust><who>$w</who></cust> IN "customers", $w != "nobody%d" CONSTRUCT <r>$w</r>`, call))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := e.PreparedStats()
		if len(res.Values) != wantRows || (after.Misses > before.Misses) != wantMiss || (fetches() > remote) != wantRemote {
			t.Errorf("%s: %d rows, prepared %+v -> %+v, %d remote fetches; want %d rows, miss %v, remote %v",
				what, len(res.Values), before, after, fetches()-remote, wantRows, wantMiss, wantRemote)
		}
	}
	step("no store", 2, true, true)
	m := NewManager(e)
	now := time.Unix(1000, 0)
	m.Clock = func() time.Time { return now }
	m.TTL = time.Minute
	m.Mode = RefreshStale
	step("virtual", 2, true, true)
	step("virtual again", 2, false, true)
	if err := m.Materialize(ctx, "customers"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)
	step("materialized", 2, true, false)
	step("materialized again", 2, false, false)
	now = now.Add(2 * time.Minute)
	step("stale", 3, true, true)
	if err := m.Refresh(ctx, "customers"); err != nil {
		t.Fatal(err)
	}
	step("refreshed", 3, true, false)
	m.Drop("customers")
	db.MustExec(`INSERT INTO customers VALUES (4, 'Edsger')`)
	step("dropped", 4, true, true)
	step("dropped again", 4, false, true)
}

func TestDropRestoresVirtualQuerying(t *testing.T) {
	e, db, fetches := newEnv(t)
	m := NewManager(e)
	m.Materialize(context.Background(), "customers")
	m.Drop("customers")
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)
	before := fetches()
	res, _ := e.Query(context.Background(), custQuery)
	if len(res.Values) != 3 {
		t.Errorf("virtual querying should see fresh data: %d", len(res.Values))
	}
	if fetches() == before {
		t.Error("drop should restore remote fetching")
	}
	if _, ok := m.Staleness("customers"); ok {
		t.Error("entry should be gone")
	}
}

func TestMaterializeRefusesIncomplete(t *testing.T) {
	cat := catalog.New()
	legacy, _ := sources.NewXMLSource("legacy", `<l><c><who>X</who></c></l>`)
	cat.AddSource(sources.NewDowned(legacy))
	cat.DefineViewQL("customers", `WHERE <c><who>$w</who></c> IN "legacy" CONSTRUCT <cust><who>$w</who></cust>`)
	e := core.New(cat, core.Config{})
	m := NewManager(e)
	if err := m.Materialize(context.Background(), "customers"); err == nil {
		t.Error("materializing from a down source must fail, not store half a view")
	}
}

func TestRefreshAll(t *testing.T) {
	e, db, _ := newEnv(t)
	m := NewManager(e)
	m.Materialize(context.Background(), "customers")
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)
	if err := m.RefreshAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Query(context.Background(), custQuery)
	if len(res.Values) != 3 {
		t.Errorf("after RefreshAll: %d", len(res.Values))
	}
}

func TestPeriodicRefresh(t *testing.T) {
	e, db, _ := newEnv(t)
	m := NewManager(e)
	if err := m.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO customers VALUES (3, 'Grace')`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartPeriodicRefresh(ctx, 5*time.Millisecond, func(err error) { t.Error(err) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, err := e.Query(context.Background(), custQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) == 3 {
			return // the loader picked up the insert
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("periodic refresh never picked up the source update")
}

func TestAdvisorGreedySelection(t *testing.T) {
	e, _, _ := newEnv(t)
	cat := e.Catalog()
	cat.DefineViewQL("rare", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <r><n>$n</n></r>`)
	a := NewAdvisor(cat)

	hot := xmlql.MustParse(custQuery)
	cold := xmlql.MustParse(`WHERE <r><n>$n</n></r> IN "rare" CONSTRUCT <o>$n</o>`)
	for i := 0; i < 100; i++ {
		a.NoteQuery(hot)
	}
	a.NoteQuery(cold)
	a.NoteCost("customers", 4000)
	a.NoteCost("rare", 4000)
	a.NoteSize("customers", 50)
	a.NoteSize("rare", 50)

	// Budget fits only one schema: the hot one wins.
	dec := a.Decide(60)
	if len(dec) != 1 || dec[0].Schema != "customers" {
		t.Fatalf("decision = %+v", dec)
	}
	// Budget fits both.
	dec = a.Decide(200)
	if len(dec) != 2 {
		t.Errorf("decision = %+v", dec)
	}
	// Unqueried schemas never selected.
	for _, c := range dec {
		if c.Queries == 0 {
			t.Errorf("unqueried schema chosen: %+v", c)
		}
	}
}

func TestAdvisorAdaptsAfterWindowDecay(t *testing.T) {
	e, _, _ := newEnv(t)
	cat := e.Catalog()
	cat.DefineViewQL("other", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <x><n>$n</n></x>`)
	a := NewAdvisor(cat)
	hot := xmlql.MustParse(custQuery)
	newHot := xmlql.MustParse(`WHERE <x><n>$n</n></x> IN "other" CONSTRUCT <o>$n</o>`)

	for i := 0; i < 100; i++ {
		a.NoteQuery(hot)
	}
	a.NoteSize("customers", 10)
	a.NoteSize("other", 10)
	if dec := a.Decide(15); len(dec) != 1 || dec[0].Schema != "customers" {
		t.Fatalf("phase 1 decision = %+v", dec)
	}
	// The load shifts; after several windows of decay the new schema
	// dominates.
	for w := 0; w < 6; w++ {
		a.EndWindow()
		for i := 0; i < 50; i++ {
			a.NoteQuery(newHot)
		}
	}
	dec := a.Decide(15)
	if len(dec) != 1 || dec[0].Schema != "other" {
		t.Errorf("advisor did not adapt: %+v", dec)
	}
}

func TestAdvisorApply(t *testing.T) {
	e, _, _ := newEnv(t)
	m := NewManager(e)
	a := NewAdvisor(e.Catalog())
	a.NoteQuery(xmlql.MustParse(custQuery))
	a.NoteSize("customers", 1)
	changes, err := a.Apply(context.Background(), m, a.Decide(1000))
	if err != nil {
		t.Fatal(err)
	}
	if changes != 1 || len(m.Materialized()) != 1 {
		t.Errorf("changes = %d, materialized = %v", changes, m.Materialized())
	}
	// Applying an empty decision drops it again.
	changes, err = a.Apply(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if changes != 1 || len(m.Materialized()) != 0 {
		t.Errorf("drop changes = %d, materialized = %v", changes, m.Materialized())
	}
	// Re-applying the same decision is a no-op.
	changes, _ = a.Apply(context.Background(), m, nil)
	if changes != 0 {
		t.Errorf("no-op changes = %d", changes)
	}
}

func TestMaterializedDocumentShape(t *testing.T) {
	e, _, _ := newEnv(t)
	doc, comp, err := e.MaterializeSchema(context.Background(), "customers")
	if err != nil || !comp.Complete {
		t.Fatalf("materialize: %v, %+v", err, comp)
	}
	if doc.Name != "customers" || len(doc.ChildrenNamed("cust")) != 2 {
		t.Errorf("document = %s", doc.String())
	}
	var v xmldm.Value = doc
	if v.Kind() != xmldm.KindNode {
		t.Error("document should be a node")
	}
}

func TestMatviewMetrics(t *testing.T) {
	eng, _, _ := newEnv(t)
	m := NewManager(eng)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	if err := m.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("nimble_matview_refresh_total").Value(); n != 2 {
		t.Errorf("refreshes = %d", n)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "nimble_matview_entries 1") {
		t.Errorf("entries gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `nimble_matview_staleness_seconds{schema="customers"}`) {
		t.Errorf("staleness gauge missing:\n%s", out)
	}
}

// TestOnChangeHearsEveryMutator: each of the four mutators, and an
// advisor applying its decision through them, names the schema whose
// local copy changed, after the store has changed.
func TestOnChangeHearsEveryMutator(t *testing.T) {
	e, _, _ := newEnv(t)
	m := NewManager(e)
	var heard []string
	m.OnChange(func(schema string) {
		_, held := m.Staleness(schema) // the hook runs outside the lock
		heard = append(heard, fmt.Sprintf("%s:%v", schema, held))
	})
	ctx := context.Background()
	if err := m.Materialize(ctx, "customers"); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh(ctx, "customers"); err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}
	m.Drop("customers")
	a := NewAdvisor(e.Catalog())
	a.NoteQuery(xmlql.MustParse(custQuery))
	if _, err := a.Apply(ctx, m, a.Decide(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(ctx, m, nil); err != nil {
		t.Fatal(err)
	}
	want := "customers:true customers:true customers:true customers:false customers:true customers:false"
	if got := strings.Join(heard, " "); got != want {
		t.Errorf("heard %s\nwant  %s", got, want)
	}
}
