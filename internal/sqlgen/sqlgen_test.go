package sqlgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

func crmDescs() []catalog.RelationalDescriptor {
	return []catalog.RelationalDescriptor{{
		Table:      "customers",
		RowElement: "customer",
		ColumnElements: map[string]string{
			"id": "id", "name": "name", "city": "city",
		},
		KeyColumn:      "id",
		IndexedColumns: []string{"id"},
	}}
}

func sqlCaps() catalog.Capabilities {
	return catalog.Capabilities{Selection: true, Projection: true, Ordering: true}
}

// requireRDBGrammar fails unless frag's statement, alone and with a key
// list (KeyedSQL), is in the dialect rdb parses: whatever sqlgen emits
// must be what a relational source runs.
func requireRDBGrammar(t *testing.T, frag *Fragment) {
	t.Helper()
	for _, sql := range []string{frag.SQL, frag.KeyedSQL("id", []string{"7", "O'Brien"})} {
		if _, err := rdb.ParseSQL(sql); err != nil {
			t.Errorf("rdb does not parse %q: %v", sql, err)
		}
	}
}

func patAndPreds(t testing.TB, src string) (*xmlql.ElemPattern, []xmlql.Expr) {
	t.Helper()
	q := xmlql.MustParse(src)
	var pat *xmlql.ElemPattern
	var preds []xmlql.Expr
	for _, c := range q.Where {
		switch x := c.(type) {
		case *xmlql.PatternCond:
			if pat == nil {
				pat = x.Pattern
			}
		case *xmlql.PredicateCond:
			preds = append(preds, x.Expr)
		}
	}
	return pat, preds
}

func TestCompileSimplePattern(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb" CONSTRUCT <r/>`)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.SQL != "SELECT city, name FROM customers" {
		t.Errorf("SQL = %q", frag.SQL)
	}
	if len(rest) != 0 {
		t.Errorf("remaining preds = %d", len(rest))
	}
	if frag.Columns["n"] != "name" || frag.Columns["c"] != "city" {
		t.Errorf("columns = %v", frag.Columns)
	}
}

func TestCompileWithWrapperElement(t *testing.T) {
	pat, _ := patAndPreds(t, `WHERE <crmdb><customer><name>$n</name></customer></crmdb> IN "crmdb" CONSTRUCT <r/>`)
	frag, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag.SQL, "FROM customers") {
		t.Errorf("SQL = %q", frag.SQL)
	}
}

func TestCompileTableNameAsTag(t *testing.T) {
	pat, _ := patAndPreds(t, `WHERE <customers><name>$n</name></customers> IN "crmdb" CONSTRUCT <r/>`)
	frag, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.Table != "customers" {
		t.Errorf("table = %q", frag.Table)
	}
}

func TestCompilePredicatePushdown(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb",
		$c = "London", contains($n, "Ada") CONSTRUCT <r/>`)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.PushedPredicates != 2 || len(rest) != 0 {
		t.Errorf("pushed = %d, rest = %d, sql = %q", frag.PushedPredicates, len(rest), frag.SQL)
	}
	if !strings.Contains(frag.SQL, "(city = 'London')") {
		t.Errorf("SQL = %q", frag.SQL)
	}
	if !strings.Contains(frag.SQL, "name LIKE '%Ada%'") {
		t.Errorf("SQL = %q", frag.SQL)
	}
}

func TestCompileKeepsUnpushablePredicates(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name></customer> IN "crmdb",
		contains($n, "100%"), $n = $other CONSTRUCT <r/>`)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both predicates stay: one has a LIKE metacharacter, one references
	// an unmapped variable.
	if frag.PushedPredicates != 0 || len(rest) != 2 {
		t.Errorf("pushed = %d, rest = %d", frag.PushedPredicates, len(rest))
	}
}

func TestCompileTextContentBecomesEquality(t *testing.T) {
	pat, _ := patAndPreds(t, `WHERE <customer><city>"London"</city><name>$n</name></customer> IN "crmdb" CONSTRUCT <r/>`)
	frag, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag.SQL, "city = 'London'") {
		t.Errorf("SQL = %q", frag.SQL)
	}
}

func TestCompileRepeatedVariableMakesIntraRowJoin(t *testing.T) {
	pat, _ := patAndPreds(t, `WHERE <customer><name>$v</name><city>$v</city></customer> IN "crmdb" CONSTRUCT <r/>`)
	frag, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag.SQL, "name = city") {
		t.Errorf("SQL = %q", frag.SQL)
	}
}

func TestCompileOrderByPushdown(t *testing.T) {
	q := xmlql.MustParse(`WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <r>$n</r> ORDER-BY $n DESCENDING`)
	pat := q.Where[0].(*xmlql.PatternCond).Pattern
	opts := DefaultOptions()
	opts.OrderBy = q.OrderBy
	frag, _, err := Compile(crmDescs(), sqlCaps(), pat, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !frag.PushedOrder || !strings.Contains(frag.SQL, "ORDER BY name DESC") {
		t.Errorf("SQL = %q", frag.SQL)
	}
	requireRDBGrammar(t, frag)
	// Unmapped key cannot push.
	opts.OrderBy = []xmlql.OrderKey{{Expr: &xmlql.VarExpr{Name: "zz"}}}
	frag, _, _ = Compile(crmDescs(), sqlCaps(), pat, nil, opts)
	if frag.PushedOrder {
		t.Error("order on unmapped variable must not push")
	}
	requireRDBGrammar(t, frag)
}

func TestCompileRespectsCapabilities(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><city>$c</city></customer> IN "crmdb", $c = "X" CONSTRUCT <r/>`)
	caps := catalog.Capabilities{} // no capabilities
	frag, rest, err := Compile(crmDescs(), caps, pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.PushedPredicates != 0 || len(rest) != 1 {
		t.Error("selection pushed despite missing capability")
	}
	if !strings.HasPrefix(frag.SQL, "SELECT * ") {
		t.Errorf("projection pushed despite missing capability: %q", frag.SQL)
	}
}

func TestCompileOptionsDisablePushdown(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><city>$c</city></customer> IN "crmdb", $c = "X" CONSTRUCT <r/>`)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frag.PushedPredicates != 0 || len(rest) != 1 {
		t.Error("pushdown should be off")
	}
	if !strings.HasPrefix(frag.SQL, "SELECT * FROM customers") {
		t.Errorf("SQL = %q", frag.SQL)
	}
}

func TestCompileNotTranslatable(t *testing.T) {
	cases := []string{
		// Unknown element.
		`WHERE <invoice><n>$n</n></invoice> IN "crmdb" CONSTRUCT <r/>`,
		// Attributes (relational exports have none).
		`WHERE <customer id=$i><name>$n</name></customer> IN "crmdb" CONSTRUCT <r/>`,
		// Deep nesting below a column.
		`WHERE <customer><name><first>$f</first></name></customer> IN "crmdb" CONSTRUCT <r/>`,
		// ELEMENT_AS needs XML row form.
		`WHERE <customer><name>$n</name></customer> ELEMENT_AS $e IN "crmdb" CONSTRUCT <r/>`,
		// Variable content directly under the row element.
		`WHERE <customer>$x</customer> IN "crmdb" CONSTRUCT <r/>`,
		// Wildcard column.
		`WHERE <customer><*>$v</></customer> IN "crmdb" CONSTRUCT <r/>`,
		// Descendant column flag.
		`WHERE <customer><//name>$v</></customer> IN "crmdb" CONSTRUCT <r/>`,
		// Tag variable.
		`WHERE <$t><name>$v</name></$t> IN "crmdb" CONSTRUCT <r/>`,
	}
	for _, src := range cases {
		pat, preds := patAndPreds(t, src)
		if _, _, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions()); !errors.Is(err, ErrNotTranslatable) {
			t.Errorf("%s: err = %v, want ErrNotTranslatable", src, err)
		}
	}
}

func TestCompiledSQLRunsAgainstSource(t *testing.T) {
	// End-to-end: compile a fragment, run it on a real relational
	// source, and check the export carries each variable's column.
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1,'Ada','London'), (2,'Alan','Cambridge'), (3,'Grace','New York')`)
	src := sources.NewRelationalSource("crmdb", db)

	pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb",
		$c = "London" CONSTRUCT <r/>`)
	frag, rest, err := Compile(src.Descriptors(), src.Capabilities(), pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d", len(rest))
	}
	doc, cost, err := src.Fetch(context.Background(), catalog.Request{Native: frag.SQL, Collection: frag.Table})
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.ChildrenNamed(frag.RowElement)
	if len(rows) != 1 {
		t.Fatalf("rows = %d (%s)", len(rows), doc.String())
	}
	if got := rows[0].Child(frag.Columns["n"]).Text(); got != "Ada" {
		t.Errorf("n = %q", got)
	}
	if cost.RowsReturned != 1 {
		t.Errorf("cost = %+v (pushdown should move 1 row)", cost)
	}
}

// TestSQLStringEscaping: query text that reaches the SQL — a predicate's
// literal or a pattern's text — is quoted, so the statement is in rdb's
// grammar and answers exactly the row whose name is that text, quotes
// and all.
func TestSQLStringEscaping(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'O''Brien', 'Cork'), (3, 'x'' OR ''1''=''1', 'Paris')`)
	cases := []struct{ where, quoted, ids string }{
		{`<customer><id>$i</id><name>$n</name></customer> IN "crmdb", $n = "O'Brien"`, `'O''Brien'`, "2"},
		{`<customer><id>$i</id><name>"O'Brien"</name></customer> IN "crmdb"`, `'O''Brien'`, "2"},
		{`<customer><id>$i</id><name>"x' OR '1'='1"</name></customer> IN "crmdb"`, `'x'' OR ''1''=''1'`, "3"},
	}
	for _, c := range cases {
		pat, preds := patAndPreds(t, "WHERE "+c.where+" CONSTRUCT <r/>")
		frag, _, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
		if err != nil {
			t.Errorf("%s: %v", c.where, err)
			continue
		}
		if !strings.Contains(frag.SQL, c.quoted) {
			t.Errorf("%s: SQL = %q, want %s in it", c.where, frag.SQL, c.quoted)
		}
		requireRDBGrammar(t, frag)
		res, err := db.Exec(frag.SQL)
		if err != nil {
			t.Errorf("%s: %v", c.where, err)
			continue
		}
		id := slices.Index(res.Columns, frag.Columns["i"])
		var ids []string
		for _, row := range res.Rows {
			ids = append(ids, xmldm.Stringify(res.Text(row, id)))
		}
		if got := strings.Join(ids, ","); got != c.ids {
			t.Errorf("%s: %s answers ids %q, want %q", c.where, frag.SQL, got, c.ids)
		}
	}
}

func TestPredicateTranslationForms(t *testing.T) {
	cases := []struct {
		pred string
		want string // substring of SQL; empty = must not push
	}{
		{`$c = "x" AND $n = "y"`, `AND`},
		{`$c = "x" OR $n = "y"`, `OR`},
		{`not($c = "x")`, `NOT`},
		{`startswith($n, "A")`, `LIKE 'A%'`},
		{`endswith($n, "z")`, `LIKE '%z'`},
		{`$c + 1 > 2`, `(city + 1)`},
		{`trim($n) = "a"`, `trim(name)`},
		{`upper($n) = "A"`, `upper(name)`},
		{`TRUE`, ``},                                               // constant predicates stay in the mediator (no vars)
		{`contains($n, $c)`, ``},                                   // non-literal needle
		{`contains($n)`, ``},                                       // wrong arity
		{`similarity($n, "x") > 0.5`, ``},                          // unknown function
		{`count({WHERE <a>$q</a> IN "s" CONSTRUCT <b/>}) > 1`, ``}, // aggregate
		{`not($n)`, ``},                                            // NOT over non-boolean-translatable
	}
	for _, c := range cases {
		pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb", `+c.pred+` CONSTRUCT <r/>`)
		frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
		if err != nil {
			t.Errorf("%s: %v", c.pred, err)
			continue
		}
		requireRDBGrammar(t, frag)
		if c.want == "" {
			if frag.PushedPredicates != 0 {
				t.Errorf("%s: should not push, SQL = %q", c.pred, frag.SQL)
			}
			if len(rest) != 1 {
				t.Errorf("%s: rest = %d", c.pred, len(rest))
			}
			continue
		}
		if frag.PushedPredicates != 1 || !strings.Contains(frag.SQL, c.want) {
			t.Errorf("%s: SQL = %q (want %q)", c.pred, frag.SQL, c.want)
		}
	}
}

func TestPredicateLiteralForms(t *testing.T) {
	cases := []string{
		`$n = 5`, `$n = 2.5`, `$n = TRUE`, `$n = FALSE`,
		`$n = 2 * 3`, `$n = (1 + 2) / 3`,
	}
	for _, p := range cases {
		pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name></customer> IN "crmdb", `+p+` CONSTRUCT <r/>`)
		frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
		if err != nil || frag.PushedPredicates != 1 || len(rest) != 0 {
			t.Errorf("%s: pushed=%d rest=%d err=%v sql=%q", p, frag.PushedPredicates, len(rest), err, frag.SQL)
			continue
		}
		requireRDBGrammar(t, frag)
	}
}

func TestScalarFunctionsInPushedPredicates(t *testing.T) {
	pat, preds := patAndPreds(t, `WHERE <customer><name>$n</name></customer> IN "crmdb",
		lower($n) = "ada", strlen($n) > 2 CONSTRUCT <r/>`)
	frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.PushedPredicates != 2 || len(rest) != 0 {
		t.Errorf("pushed = %d rest = %d sql = %q", frag.PushedPredicates, len(rest), frag.SQL)
	}
	if !strings.Contains(frag.SQL, "lower(name)") || !strings.Contains(frag.SQL, "length(name)") {
		t.Errorf("SQL = %q", frag.SQL)
	}
	requireRDBGrammar(t, frag)
}

// hostilePattern binds each of the given raw variable names to the name
// column, bypassing the parser (which would reject most of these
// spellings) — the compiler must stay safe even for programmatically
// built patterns.
func hostilePattern(vars ...string) *xmlql.ElemPattern {
	pat := &xmlql.ElemPattern{Tag: xmlql.TagTest{Name: "customer"}}
	for _, v := range vars {
		pat.Content = append(pat.Content, &xmlql.ChildPattern{Elem: &xmlql.ElemPattern{
			Tag:     xmlql.TagTest{Name: "name"},
			Content: []xmlql.ContentPattern{&xmlql.VarContent{Var: v}},
		}})
	}
	return pat
}

// TestAliasSanitizesHostileVariableNames: a variable name is query
// text, and it once reached the statement as a select-list alias. The
// select list now names table columns only, so no spelling of a variable
// reaches the SQL at all.
func TestAliasSanitizesHostileVariableNames(t *testing.T) {
	hostile := `n"; DROP TABLE customers; --`
	frag, _, err := Compile(crmDescs(), sqlCaps(), hostilePattern(hostile), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.SQL != "SELECT name FROM customers" || strings.ContainsAny(frag.SQL, `";-`) {
		t.Errorf("hostile variable name leaked into SQL: %q", frag.SQL)
	}
	if frag.Columns[hostile] != "name" {
		t.Errorf("columns = %v", frag.Columns)
	}
	requireRDBGrammar(t, frag)
}

// TestAliasCollisionsGetDistinctNames: two variables whose names once
// sanitized to one alias must not shadow each other. With no aliases,
// two variables on one column share one select item, so both read the
// one output column the source answers.
func TestAliasCollisionsGetDistinctNames(t *testing.T) {
	frag, _, err := Compile(crmDescs(), sqlCaps(), hostilePattern("a!", "a?"), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if frag.SQL != "SELECT name FROM customers" {
		t.Errorf("SQL = %q, want one select item", frag.SQL)
	}
	if c1, c2 := frag.Columns["a!"], frag.Columns["a?"]; c1 != "name" || c2 != "name" {
		t.Errorf("columns = %v, want both variables on name", frag.Columns)
	}
	requireRDBGrammar(t, frag)
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London')`)
	if res := db.MustExec(frag.SQL); fmt.Sprint(res.Columns) != "[name]" || len(res.Rows) != 1 {
		t.Errorf("the source answers columns %v, %d rows; want the one name column", res.Columns, len(res.Rows))
	}
}

// TestSQLDoesNotDependOnVariableNames: one pattern compiled under two
// sets of variable names — as unfolding mints fresh ones for each call —
// sends byte-identical SQL, alone and with a key list.
func TestSQLDoesNotDependOnVariableNames(t *testing.T) {
	const q = `WHERE <customer><id>$%s</id><name>$%s</name><city>$%s</city></customer> IN "crmdb",
		$%[2]s != "x" CONSTRUCT <r/>`
	var sqls [2][2]string
	for k, names := range [][3]string{{"i", "n", "c"}, {"_u9_z", "_u9_a", "_u9_m"}} {
		pat, preds := patAndPreds(t, fmt.Sprintf(q, names[0], names[1], names[2]))
		opts := DefaultOptions()
		opts.OrderBy = []xmlql.OrderKey{{Expr: &xmlql.VarExpr{Name: names[2]}, Desc: true}}
		frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, preds, opts)
		if err != nil || len(rest) != 0 {
			t.Fatalf("compile %v: %v, %d predicates left", names, err, len(rest))
		}
		sqls[k] = [2]string{frag.SQL, frag.KeyedSQL("id", []string{"7"})}
	}
	if sqls[0] != sqls[1] {
		t.Errorf("variable names changed the SQL:\n%q\n%q", sqls[0], sqls[1])
	}
	if want := `SELECT city, id, name FROM customers WHERE (name != 'x') ORDER BY city DESC`; sqls[0][0] != want {
		t.Errorf("SQL = %q, want %q", sqls[0][0], want)
	}
}

// TestCompileAllocatesLinearlyInPredicateSize: sqlgen writes a pushed
// predicate into one builder, so the bytes Compile allocates grow with
// the predicate's size, not with its size times its depth — for a deep
// not( nest and for a long OR chain, as the parser builds it (left-deep).
// Each tree is built directly, without the parser; the bytes at 2n must
// stay under 2.5 times those at n (copying each level's subtree makes it
// 4).
func TestCompileAllocatesLinearlyInPredicateSize(t *testing.T) {
	pat, _ := patAndPreds(t, `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb" CONSTRUCT <r/>`)
	cmp := func(k int) xmlql.Expr {
		return &xmlql.BinExpr{Op: "=", L: &xmlql.VarExpr{Name: "i"}, R: &xmlql.LitExpr{Value: int64(k)}}
	}
	shapes := map[string]func(n int) xmlql.Expr{
		"not(": func(n int) xmlql.Expr {
			e := cmp(0)
			for k := 0; k < n; k++ {
				e = &xmlql.FuncExpr{Name: "not", Args: []xmlql.Expr{e}}
			}
			return e
		},
		"OR chain": func(n int) xmlql.Expr {
			e := cmp(0)
			for k := 1; k < n; k++ {
				e = &xmlql.BinExpr{Op: "OR", L: e, R: cmp(k)}
			}
			return e
		},
	}
	for name, build := range shapes {
		bytes := func(n int) uint64 {
			pred := build(n)
			least := uint64(math.MaxUint64)
			for round := 0; round < 3; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, []xmlql.Expr{pred}, DefaultOptions())
				runtime.ReadMemStats(&after)
				if err != nil || len(rest) != 0 || frag.PushedPredicates != 1 {
					t.Fatalf("%s n=%d: %v, %d left", name, n, err, len(rest))
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		const n = 3000
		if at, at2 := bytes(n), bytes(2*n); float64(at2) >= 2.5*float64(at) {
			t.Errorf("%s: Compile allocates %d bytes at n=%d and %d at 2n: %.2f times", name, at, n, at2, float64(at2)/float64(at))
		}
	}
}

// TestCanFail: arithmetic, nested queries and calls other than the total
// built-ins at their arity can fail; comparisons, AND, OR, variables,
// literals and total calls over them cannot.
func TestCanFail(t *testing.T) {
	for _, tc := range []struct {
		pred string
		want bool
	}{
		{`$x = 1 AND $y != "a" OR $x < $y`, false},
		{`not(contains(lower($x), "%"))`, false},
		{`concat($x, $y, "z") = "a"`, false},
		{`$x + 1 = 2`, true},
		{`contains(1 / $x, "%")`, true},
		{`contains($x) = TRUE`, true},
		{`substr($x, 1) = "a"`, true},
		{`mystery($x) = 1`, true},
		{`count(WHERE <b>$z</b> IN "s" CONSTRUCT <z/>) > 0`, true},
	} {
		_, preds := patAndPreds(t, `WHERE <a>$x</a> IN "s", `+tc.pred+` CONSTRUCT <r/>`)
		if got := CanFail(preds[0]); got != tc.want {
			t.Errorf("CanFail(%s) = %v, want %v", tc.pred, got, tc.want)
		}
	}
}
