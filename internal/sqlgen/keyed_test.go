package sqlgen

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rdb"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// keyedFragment compiles a customers fragment with one pushed predicate,
// so a key list has conjuncts to join.
func keyedFragment(t testing.TB, orderBy bool) *Fragment {
	t.Helper()
	src := `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $n != "x" CONSTRUCT <r/>`
	opts := DefaultOptions()
	if orderBy {
		opts.OrderBy = xmlql.MustParse(src + ` ORDER-BY $n`).OrderBy
	}
	pat, preds := patAndPreds(t, src)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, opts)
	if err != nil || len(rest) != 0 {
		t.Fatalf("compile: %v, %d predicates left", err, len(rest))
	}
	return frag
}

func TestKeyedSQLJoinsTheConjuncts(t *testing.T) {
	frag := keyedFragment(t, false)
	if frag.Columns["i"] != "id" {
		t.Fatalf("columns %v", frag.Columns)
	}
	if want := `SELECT id, name FROM customers WHERE (name != 'x')`; frag.SQL != want {
		t.Errorf("SQL = %q, want %q", frag.SQL, want)
	}
	got := frag.KeyedSQL("id", []string{"7", "O'Brien", "007"})
	if want := `SELECT id, name FROM customers WHERE (name != 'x') AND id IN ('7', 'O''Brien', '007')`; got != want {
		t.Errorf("KeyedSQL = %q, want %q", got, want)
	}
	if want := `SELECT id, name FROM customers WHERE (name != 'x') AND id IN (…3 keys)`; frag.KeyedLabel("id", 3) != want {
		t.Errorf("KeyedLabel = %q, want %q", frag.KeyedLabel("id", 3), want)
	}
	// The fragment itself is not changed by rendering it with keys.
	if again := frag.KeyedSQL("id", []string{"1"}); !strings.HasSuffix(again, `(name != 'x') AND id IN ('1')`) || strings.Contains(frag.SQL, " IN ") {
		t.Errorf("second KeyedSQL = %q, SQL = %q", again, frag.SQL)
	}

	// With no conjunct of its own the list opens the WHERE clause; with
	// an ORDER BY it goes before it.
	pat, _ := patAndPreds(t, `WHERE <customer><id>$i</id></customer> IN "crmdb" CONSTRUCT <r/>`)
	bare, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bare.KeyedSQL("id", []string{"1"}), `SELECT id FROM customers WHERE id IN ('1')`; got != want {
		t.Errorf("KeyedSQL = %q, want %q", got, want)
	}
	ordered := keyedFragment(t, true)
	requireRDBGrammar(t, ordered)
	if got, want := ordered.KeyedSQL("id", []string{"1"}), `SELECT id, name FROM customers WHERE (name != 'x') AND id IN ('1') ORDER BY name`; got != want {
		t.Errorf("KeyedSQL = %q, want %q", got, want)
	}
}

// FuzzBindKeySQL: whatever bytes two keys hold — quotes, NULs, comment
// openers, invalid UTF-8 — the keyed statement parses, and its IN list is
// exactly the two keys as string literals: nothing a key contains is read
// as SQL.
func FuzzBindKeySQL(f *testing.F) {
	for _, seed := range [][2]string{
		{"7", "007"}, {"O'Brien", "''"}, {"'); DROP TABLE customers; --", "x"}, {"a\x00b", "\x00"},
		{"-- comment", "/* c */"}, {"日本語", "\xff\xfe"}, {"", " "}, {"\n", "\\'"}, {"1,2", "') OR ('1'='1"},
	} {
		f.Add(seed[0], seed[1])
	}
	frag := keyedFragment(f, false)
	f.Fuzz(func(t *testing.T, a, b string) {
		sql := frag.KeyedSQL("id", []string{a, b})
		stmt, err := rdb.ParseSQL(sql)
		if err != nil {
			t.Fatalf("keys %q, %q: %v\n%s", a, b, err, sql)
		}
		sel, ok := stmt.(*rdb.SelectStmt)
		if !ok {
			t.Fatalf("keys %q, %q: parsed to %T", a, b, stmt)
		}
		and, ok := sel.Where.(*rdb.SQLBin)
		if !ok || and.Op != "AND" {
			t.Fatalf("keys %q, %q: WHERE is %#v, want the fragment's conjunct AND the list", a, b, sel.Where)
		}
		in, ok := and.R.(*rdb.SQLIn)
		if !ok {
			t.Fatalf("keys %q, %q: second conjunct is %#v", a, b, and.R)
		}
		var lits []string
		for _, e := range in.List {
			lit, ok := e.(*rdb.SQLLit)
			if !ok {
				t.Fatalf("keys %q, %q: list element %#v", a, b, e)
			}
			s, ok := lit.Value.(xmldm.String)
			if !ok {
				t.Fatalf("keys %q, %q: literal %#v is not a string", a, b, lit.Value)
			}
			lits = append(lits, string(s))
		}
		if !slices.Equal(lits, []string{a, b}) {
			t.Fatalf("keys %q, %q came back as %q\n%s", a, b, lits, sql)
		}
	})
}
