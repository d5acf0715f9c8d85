package opt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/sqlgen"
	"repro/internal/testkit"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// docAccess serves one parsed document for every request.
type docAccess struct{ doc *xmldm.Node }

func (a docAccess) Roots(string, catalog.Request) ([]xmldm.Value, error) {
	return []xmldm.Value{a.doc}, nil
}

var customerFragment = &sqlgen.Fragment{
	RowElement: "customer",
	// Sorted variable order is c, i, n: not the export's column order.
	Columns: map[string]string{"i": "id", "n": "name", "c": "city"},
}

func scanAll(t *testing.T, doc string) []algebra.Binding {
	t.Helper()
	root, err := xmlparse.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	op := fragmentScan(docAccess{root}, &FetchSpec{Source: "crmdb"}, customerFragment)
	out, err := algebra.Drain(&algebra.Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFragmentScanBindsCells(t *testing.T) {
	rows := scanAll(t, `<crmdb>
		<customer><id>1</id><name>Ada</name><city>London</city></customer>
		<other><id>9</id></other>
		<customer><id>2</id><name/><city>Cambridge</city></customer>
		<customer><id>3</id><city>New York</city></customer>
		<customer><city>Paris</city><extra>x</extra><name>Blaise</name><id>4</id></customer>
		<customer><id>5</id><name>Grace <b>B.</b> Hopper</name><city>Arlington</city></customer>
	</crmdb>`)
	want := []string{
		`{c: London, i: 1, n: Ada}`,
		`{c: Cambridge, i: 2, n: }`,                // a NULL cell exports empty and binds the empty string
		`{c: New York, i: 3, n: null}`,             // a missing column binds Null
		`{c: Paris, i: 4, n: Blaise}`,              // cells out of position are found by name
		`{c: Arlington, i: 5, n: Grace B. Hopper}`, // mixed content binds its text
	}
	if len(rows) != len(want) {
		t.Fatalf("%d bindings, want %d: %v", len(rows), len(want), rows)
	}
	for i, b := range rows {
		if b.String() != want[i] {
			t.Errorf("row %d binds %s, want %s", i, b, want[i])
		}
	}
	if v, _ := rows[1].Get("n"); v != xmldm.String("") {
		t.Errorf("NULL cell bound %#v, want the empty string", v)
	}
	if v, _ := rows[2].Get("n"); v != (xmldm.Null{}) {
		t.Errorf("missing column bound %#v, want Null", v)
	}
}

func TestFragmentScanEmptyAndForeignRoots(t *testing.T) {
	if rows := scanAll(t, `<crmdb/>`); len(rows) != 0 {
		t.Errorf("empty export produced %v", rows)
	}
	if rows := scanAll(t, `<crmdb><row><id>1</id></row></crmdb>`); len(rows) != 0 {
		t.Errorf("rows of another element produced %v", rows)
	}
}

// TestFragmentScanAllocations pins the cost of a binding: nothing, from
// the export, and from a database's answer over an INT PRIMARY KEY
// column, whose text is the box its INSERT stored — the table's row list
// itself (rows) or a list of the rows a WHERE passed (filtered) — tuples
// and fields are carved from the scan's two slabs, or, for a transient
// scan, one tuple is refilled. It is the difference between a scan of 2n rows
// and one of n, so that what a fetch allocates once (the positions, the
// closure, the slabs) cancels; the row list's one more doubling is the
// allowance. A fetch of the export is also bounded whole.
func TestFragmentScanAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	scan := func(n int, path string, transient bool) float64 {
		var sb strings.Builder
		db := rdb.NewDatabase("crm")
		db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
		sb.WriteString("<crmdb>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<customer><id>%d</id><name>Name %d</name><city>City %d</city></customer>", 1000+i, i, i%7)
			if err := db.Insert("customers", rdb.Row{xmldm.Int(1000 + i), xmldm.String(fmt.Sprint("Name ", i)), xmldm.String(fmt.Sprint("City ", i%7))}); err != nil {
				t.Fatal(err)
			}
		}
		sb.WriteString("</crmdb>")
		var access Access
		switch path {
		case "export":
			root, err := xmlparse.ParseString(sb.String())
			if err != nil {
				t.Fatal(err)
			}
			access = docAccess{root}
		case "rows", "filtered":
			sql := `SELECT id, name, city FROM customers`
			if path == "filtered" {
				sql += ` WHERE name != 'x'`
			}
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			access = rowsAccess{res}
		}
		op := fragmentScan(access, &FetchSpec{Source: "crmdb"}, customerFragment)
		op.Transient = transient
		ctx := &algebra.Context{}
		return testing.AllocsPerRun(20, func() {
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			for {
				b, err := op.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			op.Close()
		})
	}
	const n = 200
	for _, path := range []string{"export", "rows", "filtered"} {
		for _, transient := range []bool{false, true} {
			if perRow := (scan(2*n, path, transient) - scan(n, path, transient)) / n; perRow > 0.02 {
				t.Errorf("fragmentScan over the %s (transient %v) allocates %.2f times per row, want 0", path, transient, perRow)
			}
		}
	}
	// The export's row elements are counted before they are collected,
	// so its row list is one allocation, not one per doubling.
	for _, transient := range []bool{false, true} {
		if allocs := scan(n, "export", transient); allocs > 8 {
			t.Errorf("a fetch of %d exported rows (transient %v) allocates %.0f times, want at most 8", n, transient, allocs)
		}
	}
}

// TestTransientScanRefillsOneTuple: a transient scan over rows hands out
// one tuple, refilled per row, and binds what the slab-built scan binds.
func TestTransientScanRefillsOneTuple(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', NULL), (2, 'Alan', 'London')`)
	res := db.MustExec(`SELECT city, name, id FROM customers`)
	held, err := algebra.Drain(&algebra.Context{}, fragmentScan(rowsAccess{res}, &FetchSpec{Source: "crmdb"}, customerFragment))
	if err != nil {
		t.Fatal(err)
	}
	op := fragmentScan(rowsAccess{res}, &FetchSpec{Source: "crmdb"}, customerFragment)
	op.Transient = true
	var first algebra.Binding
	var got []string
	n, err := algebra.Pull(&algebra.Context{}, op, func(b algebra.Binding) error {
		if first == nil {
			first = b
		}
		if b != first {
			t.Errorf("row %v came in a new tuple", b)
		}
		got = append(got, b.String())
		return nil
	})
	for i := range got {
		if got[i] != held[i].String() {
			t.Errorf("row %d binds %s, want %s", i, got[i], held[i])
		}
	}
	if err != nil || n != len(held) {
		t.Fatalf("%d bindings, %v; want %d", n, err, len(held))
	}
}

// rowsAccess answers every request in rows with one result, as
// exec.Access does for a source that answers in rows.
type rowsAccess struct{ res *rdb.Result }

func (a rowsAccess) Roots(string, catalog.Request) ([]xmldm.Value, error) {
	return nil, errors.New("a row answer was read as a document")
}

func (a rowsAccess) Rows(string, catalog.Request) (*rdb.Result, bool, error) {
	return a.res, true, nil
}

// bothPaths binds res through a fragment scan twice: from the rows, and
// from the rows' XML export, as a source that hides the row capability
// delivers them.
func bothPaths(t testing.TB, res *rdb.Result, frag *sqlgen.Fragment) (fromRows, fromXML []algebra.Binding) {
	t.Helper()
	spec := &FetchSpec{Source: "crmdb", Req: catalog.Request{Collection: frag.Table}}
	drain := func(a Access) []algebra.Binding {
		out, err := algebra.Drain(&algebra.Context{}, fragmentScan(a, spec, frag))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return drain(rowsAccess{res}), drain(docAccess{sources.RowsDocument("crmdb", spec.Req, res)})
}

// sameBindings reports the first difference between two binding lists,
// field for field and in field order, or "".
func sameBindings(a, b []algebra.Binding) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d bindings against %d", len(a), len(b))
	}
	for i := range a {
		fa, fb := a[i].Fields(), b[i].Fields()
		if len(fa) != len(fb) {
			return fmt.Sprintf("binding %d: %v against %v", i, a[i], b[i])
		}
		for k := range fa {
			if fa[k].Name != fb[k].Name || fa[k].Value != fb[k].Value {
				return fmt.Sprintf("binding %d field %d: %s=%#v against %s=%#v", i, k, fa[k].Name, fa[k].Value, fb[k].Name, fb[k].Value)
			}
		}
	}
	return ""
}

// TestBindRowsEqualsExportReadBack: a cell binds from the rows exactly
// what bindRow reads back from its export — NULL the empty string,
// strings as they are (markup included), other kinds their Stringify
// text — a column the result lacks binds Null, and a repeated column
// binds its cell.
func TestBindRowsEqualsExportReadBack(t *testing.T) {
	frag := &sqlgen.Fragment{Table: "customers", RowElement: "customer",
		Columns: map[string]string{"v": "v", "d": "a", "m": "missing"}}
	for _, tc := range []struct {
		name string
		typ  string
		cell xmldm.Value
		want xmldm.Value
	}{
		{"NULL", "VARCHAR", xmldm.Null{}, xmldm.String("")},
		{"nil", "INT", nil, xmldm.String("")},
		{"empty string", "VARCHAR", xmldm.String(""), xmldm.String("")},
		{"negative int", "INT", xmldm.Int(-42), xmldm.String("-42")},
		{"float", "FLOAT", xmldm.Float(2.5), xmldm.String("2.5")},
		{"bool", "BOOL", xmldm.Bool(true), xmldm.String("true")},
		{"date", "DATE", xmldm.Date(time.Date(2001, 4, 2, 0, 0, 0, 0, time.UTC)), xmldm.String("2001-04-02T00:00:00Z")},
		{"markup", "VARCHAR", xmldm.String(`<a href="x">&amp;</a>`), xmldm.String(`<a href="x">&amp;</a>`)},
	} {
		db := rdb.NewDatabase("crm")
		db.MustExec(`CREATE TABLE w (a VARCHAR, v ` + tc.typ + `, b VARCHAR)`)
		if err := db.Insert("w", rdb.Row{xmldm.String("first"), tc.cell, xmldm.String("second")}); err != nil {
			t.Fatal(err)
		}
		res := db.MustExec(`SELECT a, v, a FROM w`)
		fromRows, fromXML := bothPaths(t, res, frag)
		if diff := sameBindings(fromRows, fromXML); diff != "" {
			t.Errorf("%s: rows and export differ: %s", tc.name, diff)
			continue
		}
		want := xmldm.NewTuple(xmldm.Field{Name: "d", Value: xmldm.String("first")},
			xmldm.Field{Name: "m", Value: xmldm.Null{}}, xmldm.Field{Name: "v", Value: tc.want})
		if diff := sameBindings(fromRows, []algebra.Binding{want}); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}
}

// TestBindRowsEqualsExportReadBack_Property: over a database's answers,
// whose rows are the table's own read through a column map (a select list
// of columns in random order, repeated or not, or *) and whose
// texts are the boxes INSERT stored — cells of every kind and NULL, from
// every arm of a SELECT (the shared row list, an indexed =, a residual
// WHERE, ORDER BY), empty answers included — the rows bind what their
// export reads back, a variable whose column the answer lacks included.
func TestBindRowsEqualsExportReadBack_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	names := []string{"k", "i", "f", "o", "d", "s"}
	cell := func() xmldm.Value {
		switch rng.Intn(8) {
		case 0:
			return xmldm.Null{}
		case 1:
			return xmldm.Int(rng.Int63n(2001) - 1000)
		case 2:
			return xmldm.Float(rng.NormFloat64() * 1e3)
		case 3:
			return xmldm.Bool(rng.Intn(2) == 0)
		case 4:
			return xmldm.Date(time.Date(1990+rng.Intn(40), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC))
		case 5:
			return xmldm.String("")
		default:
			return xmldm.String([]string{"x", "a<b", "&amp;", " 7 ", "007"}[rng.Intn(5)])
		}
	}
	for trial := 0; trial < 500; trial++ {
		frag := &sqlgen.Fragment{Table: "customers", RowElement: "customer", Columns: map[string]string{}}
		for v := rng.Intn(4); v >= 0; v-- {
			frag.Columns[fmt.Sprint("v", v)] = names[rng.Intn(len(names))]
		}
		db := rdb.NewDatabase("crm")
		db.MustExec(`CREATE TABLE w (k INT PRIMARY KEY, i INT, f FLOAT, o BOOL, d DATE, s VARCHAR)`)
		kinds := []xmldm.Kind{xmldm.KindInt, xmldm.KindFloat, xmldm.KindBool, xmldm.KindDate, xmldm.KindString}
		rows := rng.Intn(6)
		for r := 0; r < rows; r++ {
			row := rdb.Row{xmldm.Int(r)}
			for _, k := range kinds {
				// A cell of the column's kind, or NULL.
				c := cell()
				for ; c.Kind() != k && c.Kind() != xmldm.KindNull; c = cell() {
				}
				row = append(row, c)
			}
			if err := db.Insert("w", row); err != nil {
				t.Fatal(err)
			}
		}
		items := []string{"*"}
		if rng.Intn(4) > 0 {
			items = items[:0]
			for c := rng.Intn(5); c >= 0; c-- {
				items = append(items, names[rng.Intn(len(names))])
			}
		}
		sql := "SELECT " + strings.Join(items, ", ") + " FROM w" + []string{
			"", // the shared row list
			fmt.Sprintf(" WHERE k = %d", rng.Intn(rows+1)), // through the index
			" WHERE s != 'x'", // a residual WHERE
			" ORDER BY f DESC, k",
		}[rng.Intn(4)]
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		fromRows, fromXML := bothPaths(t, res, frag)
		if diff := sameBindings(fromRows, fromXML); diff != "" {
			t.Fatalf("trial %d, %s, vars %v: rows against their export: %s", trial, sql, frag.Columns, diff)
		}
	}
}

// sourceAccess fetches from a relational source on every Open, as the
// engine's access does on a memo miss: Roots through Fetch (the export),
// and, with rows set, Rows through FetchRows.
type sourceAccess struct {
	src  *sources.RelationalSource
	rows bool
}

func (a sourceAccess) Roots(_ string, req catalog.Request) ([]xmldm.Value, error) {
	doc, _, err := a.src.Fetch(context.Background(), req)
	return []xmldm.Value{doc}, err
}

func (a sourceAccess) Rows(_ string, req catalog.Request) (*rdb.Result, bool, error) {
	if !a.rows {
		return nil, false, nil
	}
	res, _, err := a.src.FetchRows(context.Background(), req)
	return res, true, err
}

// BenchmarkFragmentScan is fetch + bind of bulk-export's fragment, 2000
// customers × 4 columns, from the rows and from their XML export
// (DESIGN § "Bind from rows" records a run):
//
//	go test -run '^$' -bench FragmentScan -benchmem ./internal/opt
func BenchmarkFragmentScan(b *testing.B) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
	for i := 0; i < 2000; i++ {
		row := rdb.Row{xmldm.Int(i), xmldm.String(fmt.Sprint("Customer ", i)), xmldm.String(fmt.Sprint("City ", i%40)), xmldm.String("gold")}
		if err := db.Insert("customers", row); err != nil {
			b.Fatal(err)
		}
	}
	src := sources.NewRelationalSource("crmdb", db)
	frag := &sqlgen.Fragment{Table: "customers", RowElement: "customer",
		SQL:     `SELECT city, id, name, tier FROM customers`,
		Columns: map[string]string{"_u6_c": "city", "_u6_i": "id", "_u6_n": "name", "_u6_t": "tier"}}
	spec := &FetchSpec{Source: "crmdb", Req: catalog.Request{Native: frag.SQL, Collection: frag.Table}}
	for _, path := range []struct {
		name string
		rows bool
	}{{"rows", true}, {"xml", false}} {
		b.Run(path.name, func(b *testing.B) {
			op := fragmentScan(sourceAccess{src: src, rows: path.rows}, spec, frag)
			ctx := &algebra.Context{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := algebra.Drain(ctx, op)
				if err != nil || len(out) != 2000 {
					b.Fatalf("%d bindings, %v", len(out), err)
				}
			}
		})
	}
}
