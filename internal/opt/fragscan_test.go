package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
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
	VarColumns: map[string]string{"i": "id", "n": "name", "c": "city"},
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

// TestFragmentScanAllocations pins the cost of a binding: the field slice
// and the tuple, whatever the number of variables. It is the difference
// between a scan of 2n rows and one of n, so that what a fetch allocates
// once (the positions, the closure) cancels; the row list's one more
// doubling is the allowance over 2.
func TestFragmentScanAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	scan := func(n int) float64 {
		var sb strings.Builder
		sb.WriteString("<crmdb>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<customer><id>%d</id><name>Name %d</name><city>City %d</city></customer>", 1000+i, i, i%7)
		}
		sb.WriteString("</crmdb>")
		root, err := xmlparse.ParseString(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		op := fragmentScan(docAccess{root}, &FetchSpec{Source: "crmdb"}, customerFragment)
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
	if perRow := (scan(2*n) - scan(n)) / n; perRow > 2.02 {
		t.Errorf("fragmentScan allocates %.2f times per row, want at most 2", perRow)
	}
}
