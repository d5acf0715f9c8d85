package sources

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/testkit"
	"repro/internal/xmldm"
)

func newCRM(t testing.TB) *rdb.Database {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'Alan', 'London'), (3, 'Grace', 'New York')`)
	db.MustExec(`CREATE INDEX ON customers (city)`)
	return db
}

func TestRelationalSourceDescriptors(t *testing.T) {
	s := NewRelationalSource("crmdb", newCRM(t))
	ds := s.Descriptors()
	if len(ds) != 1 {
		t.Fatalf("descriptors = %d", len(ds))
	}
	d := ds[0]
	if d.RowElement != "customer" {
		t.Errorf("row element = %q", d.RowElement)
	}
	if d.KeyColumn != "id" {
		t.Errorf("key = %q", d.KeyColumn)
	}
	if len(d.IndexedColumns) != 2 {
		t.Errorf("indexed = %v", d.IndexedColumns)
	}
	if d.ColumnElements["city"] != "city" {
		t.Errorf("columns = %v", d.ColumnElements)
	}
	caps := s.Capabilities()
	if !caps.Selection || !caps.Ordering || !caps.Projection {
		t.Errorf("capabilities = %+v", caps)
	}
}

func TestRelationalSourceFullExport(t *testing.T) {
	s := NewRelationalSource("crmdb", newCRM(t))
	doc, cost, err := s.Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "crmdb" {
		t.Errorf("root = %q", doc.Name)
	}
	rows := doc.ChildrenNamed("customer")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if got := rows[0].Child("name").Text(); got != "Ada" {
		t.Errorf("first name = %q", got)
	}
	if cost.RowsReturned != 3 {
		t.Errorf("cost = %+v", cost)
	}
}

func TestRelationalSourceSQLFragment(t *testing.T) {
	s := NewRelationalSource("crmdb", newCRM(t))
	doc, cost, err := s.Fetch(context.Background(), catalog.Request{
		Native:     `SELECT name FROM customers WHERE city = 'London'`,
		Collection: "customers",
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.ChildrenNamed("customer")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Child("name") == nil || rows[0].Child("city") != nil {
		t.Error("projection not respected in export")
	}
	if cost.RowsReturned != 2 {
		t.Errorf("cost = %+v", cost)
	}
	// Bad SQL surfaces as an error naming the source.
	if _, _, err := s.Fetch(context.Background(), catalog.Request{Native: "garbage"}); err == nil || !strings.Contains(err.Error(), "crmdb") {
		t.Errorf("bad SQL error = %v", err)
	}
}

func TestSingular(t *testing.T) {
	cases := map[string]string{
		"customers": "customer", "orders": "order", "address": "address",
		"s": "s", "data": "data", "Boss": "boss", // 'ss' endings are kept

	}
	for in, want := range cases {
		if got := singular(in); got != want {
			t.Errorf("singular(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDirectorySource(t *testing.T) {
	d := NewDirectorySource("ldap", "org")
	if err := d.Put("eng/alice", map[string]string{"mail": "alice@x.com", "role": "dev"}); err != nil {
		t.Fatal(err)
	}
	d.Put("eng/bob", map[string]string{"mail": "bob@x.com"})
	d.Put("sales/carol", map[string]string{"mail": "carol@x.com"})
	if err := d.Put("", nil); err == nil {
		t.Error("empty path should fail")
	}
	if !d.Capabilities().KeyLookupOnly {
		t.Error("directory must be key-lookup-only")
	}

	// Whole export.
	doc, cost, err := d.Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "ldap" || doc.Child("org") == nil {
		t.Errorf("export root = %s", doc.Name)
	}
	if cost.RowsReturned < 5 {
		t.Errorf("cost = %+v", cost)
	}

	// Path lookup.
	doc, _, err = d.Fetch(context.Background(), catalog.Request{Native: "eng/alice"})
	if err != nil {
		t.Fatal(err)
	}
	alice := doc.Child("alice")
	if alice == nil || alice.Child("mail").Text() != "alice@x.com" {
		t.Errorf("path lookup = %s", doc.String())
	}

	// Wildcard.
	doc, _, _ = d.Fetch(context.Background(), catalog.Request{Native: "eng/*"})
	if len(doc.ChildElements()) != 2 {
		t.Errorf("wildcard children = %d", len(doc.ChildElements()))
	}

	// Miss.
	doc, _, _ = d.Fetch(context.Background(), catalog.Request{Native: "nosuch/path"})
	if len(doc.ChildElements()) != 0 {
		t.Error("missing path should return empty document")
	}

	// Update merges attributes.
	d.Put("eng/alice", map[string]string{"role": "lead"})
	doc, _, _ = d.Fetch(context.Background(), catalog.Request{Native: "eng/alice"})
	if doc.Child("alice").Child("role").Text() != "lead" {
		t.Error("attribute update lost")
	}
}

// TestDirectoryExportIsOneIndexedSnapshot: whole exports between two Puts
// are one shared, indexed document with the cost the export always had
// (one row per entry); a Put makes the next export a new document, and
// the old one loses its index. Path lookups still build fresh trees.
func TestDirectoryExportIsOneIndexedSnapshot(t *testing.T) {
	d := NewDirectorySource("ldap", "org")
	d.Put("eng/alice", map[string]string{"mail": "a@x", "role": "dev"})
	d.Put("eng/bob", map[string]string{"mail": "b@x"})
	ctx := context.Background()
	first, cost, err := d.Fetch(ctx, catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := d.Fetch(ctx, catalog.Request{}); again != first {
		t.Error("two exports with no Put between are different documents")
	}
	// ldap root aside, entries org, eng, alice, bob.
	if cost.RowsReturned != 4 || cost.BytesMoved != 4*32 {
		t.Errorf("cost = %+v, want 4 entries", cost)
	}
	ix := d.IndexFor(first)
	if ix == nil || len(ix.Named("mail")) != 2 || ix.Len() != first.CountElements() {
		t.Fatalf("IndexFor(export) = %+v", ix)
	}
	path, _, _ := d.Fetch(ctx, catalog.Request{Native: "eng/alice"})
	if d.IndexFor(path) != nil {
		t.Error("a path lookup's document must get no index")
	}
	d.Put("eng/carol", map[string]string{"mail": "c@x"})
	if d.IndexFor(first) != nil {
		t.Error("the export from before a Put must get no index")
	}
	next, cost, _ := d.Fetch(ctx, catalog.Request{})
	if next == first || cost.RowsReturned != 5 || len(d.IndexFor(next).Named("mail")) != 3 {
		t.Errorf("after Put: same doc %v, cost %+v", next == first, cost)
	}
}

func TestXMLSource(t *testing.T) {
	s, err := NewXMLSource("bib", `<bib><book><title>T</title></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := s.Fetch(context.Background(), catalog.Request{})
	if err != nil || doc.Child("book") == nil {
		t.Errorf("fetch = %v, %v", doc, err)
	}
	if _, err := NewXMLSource("bad", `<a><b></a>`); err == nil {
		t.Error("bad XML should fail")
	}
}

func TestCSVSource(t *testing.T) {
	csvText := "id,Name,City\n1,Ada,London\n2,Alan,\n"
	s, err := NewCSVSource("feed", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := s.Fetch(context.Background(), catalog.Request{})
	rows := doc.ChildrenNamed("row")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Child("name").Text() != "Ada" {
		t.Error("header not lower-cased or data wrong")
	}
	if rows[1].Child("city").Text() != "" {
		t.Error("empty field should be empty element")
	}
	if _, err := NewCSVSource("empty", strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}
	if _, err := NewCSVSource("ragged", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV should fail")
	}
}

func TestNetworkSimAvailability(t *testing.T) {
	base := catalog.NewStaticSource("s", mustElem())
	sim := NewNetworkSim(base, 0, 0.5, 42)
	ok, fail := 0, 0
	for i := 0; i < 200; i++ {
		_, _, err := sim.Fetch(context.Background(), catalog.Request{})
		if errors.Is(err, ErrUnavailable) {
			fail++
		} else if err == nil {
			ok++
		} else {
			t.Fatal(err)
		}
	}
	if ok < 60 || fail < 60 {
		t.Errorf("availability skew: ok=%d fail=%d", ok, fail)
	}
	calls, failures, _ := sim.Stats()
	if calls != 200 || failures != fail {
		t.Errorf("stats = %d, %d", calls, failures)
	}
}

func TestNetworkSimLatencyAccounting(t *testing.T) {
	base := catalog.NewStaticSource("s", mustElem())
	sim := NewNetworkSim(base, 5*time.Millisecond, 1.0, 1)
	sim.Sleep = false // account only
	for i := 0; i < 3; i++ {
		if _, _, err := sim.Fetch(context.Background(), catalog.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, simulated := sim.Stats()
	if simulated != 15*time.Millisecond {
		t.Errorf("simulated = %v", simulated)
	}
}

// TestNetworkSimInjectedSleep pins the sleep path to an injected
// sleeper instead of racing real wall-clock deadlines (the old version
// compared a 5ms context against a 2ms sleep and flaked under load).
func TestNetworkSimInjectedSleep(t *testing.T) {
	base := catalog.NewStaticSource("s", mustElem())
	sim := NewNetworkSim(base, 2*time.Millisecond, 1.0, 1)
	var slept []time.Duration
	sim.SleepFn = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	if _, _, err := sim.Fetch(context.Background(), catalog.Request{}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Millisecond {
		t.Errorf("slept = %v, want one 2ms sleep", slept)
	}
	// A sleeper observing cancellation aborts the fetch with the
	// context's error — no wall-clock wait involved.
	sim.Latency = time.Second
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sim.Fetch(ctx, catalog.Request{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancel err = %v", err)
	}
	if len(slept) != 2 || slept[1] != time.Second {
		t.Errorf("slept = %v, want the 1s attempt recorded", slept)
	}
}

func TestTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrUnavailable, true},
		{ErrMalformed, true},
		{fmt.Errorf("wrapped: %w", ErrUnavailable), true},
		{fmt.Errorf("wrapped: %w", ErrMalformed), true},
		{errors.New("schema mismatch"), false},
		{context.Canceled, false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDowned(t *testing.T) {
	d := NewDowned(catalog.NewStaticSource("s", mustElem()))
	if d.Name() != "s" {
		t.Errorf("name = %q", d.Name())
	}
	if _, _, err := d.Fetch(context.Background(), catalog.Request{}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v", err)
	}
}

func mustElem() *xmldm.Node {
	b := xmldm.NewBuilder()
	return b.Elem("doc", b.Elem("item", "1"))
}

func TestInstrumentedSource(t *testing.T) {
	inner, err := NewXMLSource("feed", `<feed><a>1</a></feed>`)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	src := Instrument(inner, reg)
	if src.Name() != "feed" {
		t.Errorf("name = %s", src.Name())
	}
	if w, ok := src.(interface{ Inner() catalog.Source }); !ok || w.Inner() != catalog.Source(inner) {
		t.Error("Instrumented must expose Inner() for descriptor unwrapping")
	}
	if _, _, err := src.Fetch(context.Background(), catalog.Request{}); err != nil {
		t.Fatal(err)
	}
	down := Instrument(NewDowned(inner), reg)
	if _, _, err := down.Fetch(context.Background(), catalog.Request{}); err == nil {
		t.Fatal("downed fetch should fail")
	}
	if n := reg.Counter("nimble_source_fetch_total", "source", "feed", "outcome", "ok").Value(); n != 1 {
		t.Errorf("ok fetches = %d", n)
	}
	if n := reg.Counter("nimble_source_fetch_total", "source", "feed", "outcome", "unavailable").Value(); n != 1 {
		t.Errorf("unavailable fetches = %d", n)
	}
	if c := reg.Histogram("nimble_source_fetch_seconds", "source", "feed").Count(); c != 2 {
		t.Errorf("latency observations = %d", c)
	}
	// Nil registry: pass-through, no wrapper.
	if got := Instrument(inner, nil); got != catalog.Source(inner) {
		t.Error("nil registry should return the source unchanged")
	}
}

// TestResultRowsAreSlabBuilt pins what exporting a SQL result costs: the
// two slabs, the root's child list and the root, plus at most one boxed
// string per non-NULL cell — nothing per row and nothing per node. String
// cells are shared with the database and cost nothing; the id column pays
// for its digits and their box, which the three free cells of its row
// more than cover.
func TestResultRowsAreSlabBuilt(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
	const rows = 300
	for i := 0; i < rows; i++ {
		var tier xmldm.Value = xmldm.String("gold")
		if i%10 == 0 {
			tier = xmldm.Null{}
		}
		if err := db.Insert("customers", rdb.Row{xmldm.Int(1000 + i), xmldm.String(fmt.Sprintf("Name %d", i)), xmldm.String("Oslo"), tier}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`SELECT id, name, city, tier FROM customers`)
	if err != nil {
		t.Fatal(err)
	}
	doc := RowsDocument("crmdb", catalog.Request{Collection: "customers"}, res)
	if got := doc.CountElements(); got != 1+rows*5 {
		t.Fatalf("%d elements, want %d", got, 1+rows*5)
	}
	first, twelfth := doc.Children[0].(*xmldm.Node), doc.Children[11].(*xmldm.Node)
	if first.Child("tier").Text() != "" || len(first.Child("tier").Children) != 0 {
		t.Errorf("NULL cell exported %v, want an empty element", first.Child("tier").Children)
	}
	if twelfth.Child("id").Text() != "1011" || twelfth.Child("name").Text() != "Name 11" || twelfth.Child("tier").Text() != "gold" {
		t.Errorf("row 11 exported as %s", twelfth)
	}
	if twelfth.Parent != doc || twelfth.Child("city").Parent != twelfth || twelfth.Ord != 1+11*5+1 {
		t.Errorf("row 11 has parent %v ord %d", twelfth.Parent, twelfth.Ord)
	}
	// Every child list ends at its own length: appending to one cannot
	// reach into its neighbour's slots.
	name := first.Child("name")
	name.Children = append(name.Children, xmldm.String("!"))
	first.Children = append(first.Children, &xmldm.Node{Name: "extra"})
	if got := first.Child("city").Text(); got != "Oslo" {
		t.Errorf("appending to one cell changed its neighbour to %q", got)
	}
	if got := doc.Children[1].(*xmldm.Node).Child("id").Text(); got != "1001" {
		t.Errorf("appending to one row changed the next row's id to %q", got)
	}

	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	cells := rows * 4
	if n := testing.AllocsPerRun(20, func() { RowsDocument("crmdb", catalog.Request{Collection: "customers"}, res) }); n > float64(cells+4) {
		t.Errorf("exporting %d rows of 4 cells allocates %v times, want at most %d", rows, n, cells+4)
	}
}

// TestViewExportSharesStoredText pins the export of an answer over an
// INT PRIMARY KEY column, the table's own rows read through a column map:
// every cell's text is the box its INSERT stored, so the export costs its
// two slabs, the root's child list and the root, and nothing per row or
// per cell, of any kind; and each cell exports its Stringify text under
// its output column's name, NULL an empty element.
func TestViewExportSharesStoredText(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, score FLOAT, tier VARCHAR)`)
	const rows = 300
	for i := 0; i < rows; i++ {
		var tier xmldm.Value = xmldm.String("gold")
		if i%10 == 0 {
			tier = xmldm.Null{}
		}
		if err := db.Insert("customers", rdb.Row{xmldm.Int(1000 + i), xmldm.String(fmt.Sprintf("Name %d", i)), xmldm.Float(float64(i) / 8), tier}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`SELECT tier, score, id FROM customers`)
	if err != nil {
		t.Fatal(err)
	}
	req := catalog.Request{Collection: "customers"}
	doc := RowsDocument("crmdb", req, res)
	for r, row := range res.Rows {
		got := doc.Children[r].(*xmldm.Node)
		for i, col := range []string{"tier", "score", "id"} {
			want := ""
			if c := row[res.Pos(i)]; c.Kind() != xmldm.KindNull {
				want = xmldm.Stringify(c)
			}
			if cell := got.Children[i].(*xmldm.Node); cell.Name != col || cell.Text() != want {
				t.Fatalf("row %d exports %s, want <%s>%s</%s> at %d", r, got, col, want, col, i)
			}
		}
	}
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	if n := testing.AllocsPerRun(20, func() { RowsDocument("crmdb", req, res) }); n > 4 {
		t.Errorf("exporting an answer of %d rows allocates %v times, want at most 4", rows, n)
	}
}

// TestFullExportCostsEachTableAtItsWidth: a whole-source export moves
// each table's rows at that table's width, Σ rows × (cols + 1) × 16.
func TestFullExportCostsEachTableAtItsWidth(t *testing.T) {
	db := newCRM(t) // customers: 3 rows × 3 columns
	db.MustExec(`CREATE TABLE tags (tag VARCHAR)`)
	db.MustExec(`INSERT INTO tags VALUES ('a'), ('b')`)
	_, cost, err := NewRelationalSource("crmdb", db).Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (catalog.Cost{RowsReturned: 5, BytesMoved: (3*4 + 2*2) * 16}); cost != want {
		t.Errorf("cost = %+v, want %+v", cost, want)
	}
}

// TestRowAnswerCostsAsItsExport: FetchRows answers a fragment with the
// rows whose export Fetch returns, at the same cost; a request without a
// fragment is a document, not rows.
func TestRowAnswerCostsAsItsExport(t *testing.T) {
	s := NewRelationalSource("crmdb", newCRM(t))
	req := catalog.Request{Native: `SELECT name, city FROM customers WHERE city = 'London'`, Collection: "customers"}
	doc, docCost, err := s.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, cost, err := s.FetchRows(context.Background(), req)
	if err != nil || cost != docCost || len(res.Rows) != 2 {
		t.Fatalf("FetchRows = %v rows, %+v, %v; Fetch cost %+v", res, cost, err, docCost)
	}
	if got := RowsDocument("crmdb", req, res); got.String() != doc.String() {
		t.Errorf("export of the rows %s, Fetch %s", got, doc)
	}
	if _, _, err := s.FetchRows(context.Background(), catalog.Request{}); err == nil {
		t.Error("rows without a fragment answered")
	}
}

// TestWrappersForwardRows: the simulation and the instrumentation answer
// in rows exactly when what they wrap does, and the instrumentation
// records a row answer into the series a document goes to; Downed hides
// the capability.
func TestWrappersForwardRows(t *testing.T) {
	rel := NewRelationalSource("crmdb", newCRM(t))
	xml, err := NewXMLSource("feed", `<feed/>`)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		src  catalog.Source
		want bool
	}{
		{NewNetworkSim(rel, 0, 1, 1), true},
		{Instrument(rel, reg), true},
		{Instrument(NewNetworkSim(rel, 0, 1, 1), reg), true},
		{NewNetworkSim(xml, 0, 1, 1), false},
		{Instrument(xml, reg), false},
		{NewDowned(rel), false},
	} {
		if _, ok := catalog.RowsOf(tc.src); ok != tc.want {
			t.Errorf("%T over %s: answers in rows %v, want %v", tc.src, tc.src.Name(), ok, tc.want)
		}
	}
	inst := Instrument(rel, reg).(*Instrumented)
	if _, _, err := inst.FetchRows(context.Background(), catalog.Request{Native: `SELECT name FROM customers`}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.FetchRows(context.Background(), catalog.Request{Native: `garbage`}); err == nil {
		t.Fatal("bad SQL answered")
	}
	ok := reg.Counter("nimble_source_fetch_total", "source", "crmdb", "outcome", "ok").Value()
	bad := reg.Counter("nimble_source_fetch_total", "source", "crmdb", "outcome", "error").Value()
	if ok != 1 || bad != 1 || reg.Counter("nimble_source_bytes_total", "source", "crmdb").Value() != 3*16 ||
		reg.Histogram("nimble_source_fetch_seconds", "source", "crmdb").Count() != 2 {
		t.Errorf("row answers recorded ok=%d error=%d", ok, bad)
	}
}

// TestNetworkSimRowsMatchDocuments: one seeded simulation answering in
// rows draws the same availability coins, fails the same calls and
// sleeps the same per-byte delays as its twin answering with documents.
func TestNetworkSimRowsMatchDocuments(t *testing.T) {
	db := newCRM(t)
	for i := 4; i < 200; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO customers VALUES (%d, 'N%d', 'Oslo')`, i, i))
	}
	rel := NewRelationalSource("crmdb", db)
	sims := [2]*NetworkSim{NewNetworkSim(rel, time.Millisecond, 0.6, 26), NewNetworkSim(rel, time.Millisecond, 0.6, 26)}
	var trails [2][]string
	for k, sim := range sims {
		sim.PerKB = 100 * time.Microsecond
		sim.SleepFn = func(_ context.Context, d time.Duration) error {
			trails[k] = append(trails[k], "slept "+d.String())
			return nil
		}
	}
	for i := 0; i < 40; i++ {
		req := catalog.Request{Native: fmt.Sprintf(`SELECT id, name FROM customers WHERE id < %d`, 10*i), Collection: "customers"}
		_, cost, err := sims[0].FetchRows(context.Background(), req)
		trails[0] = append(trails[0], fmt.Sprintf("%+v %v", cost, err))
		_, cost, err = sims[1].Fetch(context.Background(), req)
		trails[1] = append(trails[1], fmt.Sprintf("%+v %v", cost, err))
	}
	if strings.Join(trails[0], "\n") != strings.Join(trails[1], "\n") {
		t.Errorf("rows:\n%s\ndocuments:\n%s", strings.Join(trails[0], "\n"), strings.Join(trails[1], "\n"))
	}
	c0, f0, s0 := sims[0].Stats()
	c1, f1, s1 := sims[1].Stats()
	if c0 != c1 || f0 != f1 || s0 != s1 || f0 == 0 || f0 == c0 {
		t.Errorf("stats: rows %d/%d/%v, documents %d/%d/%v", c0, f0, s0, c1, f1, s1)
	}
}
