package rdb

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmldm"
)

// newTestDB builds a small customers/orders database used across tests.
func newTestDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("crm")
	stmts := []string{
		`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, since DATE)`,
		`CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, total FLOAT, status VARCHAR)`,
		`INSERT INTO customers VALUES
			(1, 'Ada Lovelace', 'London', '1990-01-01'),
			(2, 'Alan Turing', 'London', '1991-06-23'),
			(3, 'Grace Hopper', 'New York', '1992-12-09'),
			(4, 'Edsger Dijkstra', 'Austin', '1993-05-11')`,
		`INSERT INTO orders VALUES
			(100, 1, 250.0, 'shipped'),
			(101, 1, 75.5, 'open'),
			(102, 2, 120.0, 'shipped'),
			(103, 3, 310.25, 'open'),
			(104, 3, 42.0, 'cancelled')`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return db
}

// out is res's rows as its reader sees them: each row's output columns,
// read through Pos.
func out(res *Result) []Row {
	rows := make([]Row, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = make(Row, len(res.Columns))
		for i := range res.Columns {
			rows[r][i] = row[res.Pos(i)]
		}
	}
	return rows
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDatabase("d")
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Exec(`CREATE TABLE u (a INT, a VARCHAR)`); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := db.CreateTable("empty", Schema{PrimaryKey: -1}); err == nil {
		t.Error("empty schema should fail")
	}
}

func TestInsertAndSelectAll(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`SELECT * FROM customers`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Columns) != 4 || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Stats.RowsScanned != 4 {
		t.Errorf("scanned = %d", res.Stats.RowsScanned)
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	db := newTestDB(t)
	// Strings coerce to numbers and dates; numbers to strings.
	if _, err := db.Exec(`INSERT INTO customers VALUES ('5', 42, 'Paris', '2001-04-02')`); err != nil {
		t.Fatal(err)
	}
	rows := out(db.MustExec(`SELECT name, since FROM customers WHERE id = 5`))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].Kind() != xmldm.KindString || xmldm.Stringify(rows[0][0]) != "42" {
		t.Errorf("name = %v", rows[0][0])
	}
	if rows[0][1].Kind() != xmldm.KindDate {
		t.Errorf("since kind = %v", rows[0][1].Kind())
	}
	// Uncoercible values fail.
	if _, err := db.Exec(`INSERT INTO customers VALUES ('abc', 'x', 'y', '2001-01-01')`); err == nil {
		t.Error("uncoercible id should fail")
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO customers VALUES (1, 'Dup', 'X', '2000-01-01')`); err == nil {
		t.Error("duplicate primary key should fail")
	}
}

// TestInsertIsAllOrNothing: an INSERT that fails on any of its rows — a
// key a unique index holds, a key an earlier row of the statement has, a
// row of the wrong arity or an uncoercible value — appends none of them,
// and the indexes find none; the same rows, valid, all land.
func TestInsertIsAllOrNothing(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	db.MustExec(`CREATE INDEX ON t (v)`)
	db.MustExec(`INSERT INTO t VALUES (9, 'z')`)
	for _, sql := range []string{
		`INSERT INTO t VALUES (1, 'a'), (1, 'b')`,
		`INSERT INTO t VALUES (2, 'a'), (3, 'x', 'extra')`,
		`INSERT INTO t VALUES (4, 'a'), (9, 'b')`,
		`INSERT INTO t VALUES (5, 'a'), ('five', 'b')`,
		`INSERT INTO t (v, id) VALUES ('a', 6), ('b')`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s: no error", sql)
		}
		if got := fmt.Sprint(db.MustExec(`SELECT * FROM t`).Rows); got != "[[9 z]]" {
			t.Errorf("after %s the table holds %s, want [[9 z]]", sql, got)
		}
		if res := db.MustExec(`SELECT id FROM t WHERE v = 'a'`); len(res.Rows) != 0 || !res.Stats.IndexUsed {
			t.Errorf("after %s the index on v finds %v (index %v)", sql, res.Rows, res.Stats.IndexUsed)
		}
	}
	db.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'a')`)
	for where, want := range map[string]string{`v = 'a'`: "[[1] [2]]", `id = 2`: "[[2]]", `id >= 0`: "[[1] [2] [9]]"} {
		if res := db.MustExec(`SELECT id FROM t WHERE ` + where); fmt.Sprint(out(res)) != want || !res.Stats.IndexUsed {
			t.Errorf("%s: %v (index %v), want %s", where, out(res), res.Stats.IndexUsed, want)
		}
	}
}

func TestSelectWhereComparisons(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT * FROM customers WHERE city = 'London'`, 2},
		{`SELECT * FROM customers WHERE city != 'London'`, 2},
		{`SELECT * FROM customers WHERE id > 2`, 2},
		{`SELECT * FROM customers WHERE id >= 2`, 3},
		{`SELECT * FROM customers WHERE id < 2`, 1},
		{`SELECT * FROM customers WHERE id <= 2 AND city = 'London'`, 2},
		{`SELECT * FROM customers WHERE city = 'London' OR city = 'Austin'`, 3},
		{`SELECT * FROM customers WHERE NOT city = 'London'`, 2},
		{`SELECT * FROM customers WHERE name LIKE 'A%'`, 2},
		{`SELECT * FROM customers WHERE name LIKE '%ra%'`, 2}, // Grace? no: G-r-a... "Grace Hopper" has "ra"? G,r,a yes. "Edsger Dijkstra" has "ra" at end. Ada no. Alan no.
		{`SELECT * FROM customers WHERE name LIKE '_da%'`, 1},
		{`SELECT * FROM customers WHERE NOT name LIKE 'A%'`, 2},
		{`SELECT * FROM customers WHERE city IN ('London', 'Austin')`, 3},
		{`SELECT * FROM customers WHERE NOT city IN ('London')`, 2},
		{`SELECT * FROM orders WHERE total > 100 AND status = 'shipped'`, 2},
		{`SELECT * FROM orders WHERE total + 10 > 300`, 1},
		{`SELECT * FROM orders WHERE total * 2 >= 620.5`, 1},
	}
	for _, c := range cases {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestSelectProjectionRepeatsColumns(t *testing.T) {
	db := newTestDB(t)
	res := db.MustExec(`SELECT name, CITY, name FROM customers WHERE id = 1`)
	if fmt.Sprint(res.Columns) != "[name city name]" {
		t.Errorf("columns = %v", res.Columns)
	}
	if got := fmt.Sprint(out(res)); got != "[[Ada Lovelace London Ada Lovelace]]" {
		t.Errorf("rows = %s", got)
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	rows := out(db.MustExec(`SELECT name FROM customers ORDER BY name DESC`))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if xmldm.Stringify(rows[0][0]) != "Grace Hopper" {
		t.Errorf("first = %v", rows[0][0])
	}
	for _, tc := range []struct {
		sql  string
		want string
	}{
		// A key the select list drops, and one it keeps.
		{`SELECT name FROM customers ORDER BY since DESC`, `[[Edsger Dijkstra] [Grace Hopper] [Alan Turing] [Ada Lovelace]]`},
		{`SELECT total, oid FROM orders ORDER BY status DESC, total`, `[[120 102] [250 100] [75.5 101] [310.25 103] [42 104]]`},
		{`SELECT city, id FROM customers WHERE city = 'London' ORDER BY id DESC`, `[[London 2] [London 1]]`},
	} {
		if got := fmt.Sprint(out(db.MustExec(tc.sql))); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}

func TestIndexUse(t *testing.T) {
	db := newTestDB(t)
	// Primary key index exists on customers.id.
	res := db.MustExec(`SELECT * FROM customers WHERE id = 3`)
	if !res.Stats.IndexUsed {
		t.Error("primary key lookup should use index")
	}
	if res.Stats.RowsScanned != 1 {
		t.Errorf("scanned = %d, want 1", res.Stats.RowsScanned)
	}
	// Range scan through the index.
	res = db.MustExec(`SELECT * FROM customers WHERE id >= 3`)
	if !res.Stats.IndexUsed || len(res.Rows) != 2 {
		t.Errorf("range: used=%v rows=%d", res.Stats.IndexUsed, len(res.Rows))
	}
	// Secondary index.
	if _, err := db.Exec(`CREATE INDEX idx_city ON customers (city)`); err != nil {
		t.Fatal(err)
	}
	if !db.HasIndex("customers", "city") {
		t.Error("HasIndex should report the new index")
	}
	res = db.MustExec(`SELECT * FROM customers WHERE city = 'London'`)
	if !res.Stats.IndexUsed || res.Stats.RowsScanned != 2 {
		t.Errorf("city lookup: used=%v scanned=%d", res.Stats.IndexUsed, res.Stats.RowsScanned)
	}
	// No index on name: full scan.
	res = db.MustExec(`SELECT * FROM customers WHERE name = 'Ada Lovelace'`)
	if res.Stats.IndexUsed || res.Stats.RowsScanned != 4 {
		t.Errorf("name lookup: used=%v scanned=%d", res.Stats.IndexUsed, res.Stats.RowsScanned)
	}
}

func TestIndexFilterFlippedOperands(t *testing.T) {
	db := newTestDB(t)
	res := db.MustExec(`SELECT * FROM customers WHERE 3 = id`)
	if !res.Stats.IndexUsed || len(res.Rows) != 1 {
		t.Errorf("flipped equality: used=%v rows=%d", res.Stats.IndexUsed, len(res.Rows))
	}
	res = db.MustExec(`SELECT * FROM customers WHERE 3 <= id`)
	if !res.Stats.IndexUsed || len(res.Rows) != 2 {
		t.Errorf("flipped range: used=%v rows=%d", res.Stats.IndexUsed, len(res.Rows))
	}
}

// TestIndexFilterRanksConjuncts: the index serves the most selective
// indexable conjunct, not the first in the text. A range written before
// an equality or an IN list used to win and scan every row it covered.
func TestIndexFilterRanksConjuncts(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`CREATE INDEX ON customers (city)`)
	rows := func(res *Result) string {
		var ids []string
		for _, r := range res.Rows {
			ids = append(ids, xmldm.Stringify(r[0]))
		}
		return strings.Join(ids, ",")
	}
	for _, tc := range []struct {
		where   string
		scanned int
		ids     string
	}{
		{`id >= 0 AND id IN (3, 1)`, 2, "1,3"},            // IN beats the range before it
		{`id >= 0 AND city = 'London'`, 2, "1,2"},         // = beats the range before it
		{`id IN (1, 2, 3) AND city = 'New York'`, 1, "3"}, // = beats IN
		{`city = 'London' AND id = 2`, 1, "2"},            // = on the unique index beats = on a plain one
		{`id IN (4, 4, '04', 2) AND id < 100`, 2, "2,4"},  // a row is found once however often it is listed
		{`id IN (9, 10)`, 0, ""},                          // nothing found, nothing scanned
		{`id IN (1, 2) AND name = 'Alan Turing'`, 2, "2"}, // the other conjuncts still filter
	} {
		res := db.MustExec(`SELECT id FROM customers WHERE ` + tc.where)
		if !res.Stats.IndexUsed || res.Stats.RowsScanned != tc.scanned || rows(res) != tc.ids {
			t.Errorf("%s: index=%v scanned=%d rows=%s; want true, %d, %s",
				tc.where, res.Stats.IndexUsed, res.Stats.RowsScanned, rows(res), tc.scanned, tc.ids)
		}
		// The rows come in table order, as the scan delivers them.
		scan := db.MustExec(`SELECT id FROM customers WHERE (` + tc.where + `) OR 1 = 0`)
		if scan.Stats.IndexUsed || rows(scan) != rows(res) {
			t.Errorf("%s: full scan (index=%v) finds %s, the index %s", tc.where, scan.Stats.IndexUsed, rows(scan), rows(res))
		}
	}
}

// TestIndexInListFindsWhatCompareMatches: the IN path looks keys up with
// the data model's equality, so a key that reached the mediator as text
// finds the number it names, text finds text however it is spelled as a
// number, and the empty string finds the NULL cells, which read as it.
func TestIndexInListFindsWhatCompareMatches(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, code VARCHAR)`)
	db.MustExec(`CREATE INDEX ON t (code)`)
	db.MustExec(`INSERT INTO t VALUES (7, '007'), (12, 'x'), (3, '7'), (5, NULL), (6, '')`)
	for _, tc := range []struct {
		where string
		ids   string
	}{
		{`id IN ('007', ' 12 ', '7.0')`, "7,12"},
		{`code IN ('7')`, "7,3"},
		{`code IN ('x', 'y')`, "12"},
		{`code IN ('')`, "5,6"}, // a NULL cell reads as ''
	} {
		res := db.MustExec(`SELECT id FROM t WHERE ` + tc.where)
		var ids []string
		for _, r := range res.Rows {
			ids = append(ids, xmldm.Stringify(r[0]))
		}
		if got := strings.Join(ids, ","); !res.Stats.IndexUsed || got != tc.ids {
			t.Errorf("%s: index=%v rows=%s, want %s", tc.where, res.Stats.IndexUsed, got, tc.ids)
		}
	}
}

func TestTableNames(t *testing.T) {
	db := newTestDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "customers" {
		t.Errorf("names = %v", names)
	}
}

func TestSQLErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM nosuch`,
		`SELECT nosuch FROM customers`,
		`SELECT * FROM customers WHERE`,
		`SELECT * FROM customers WHERE name LIKE 5`,
		`INSERT INTO customers VALUES (1)`,
		`INSERT INTO nosuch VALUES (1)`,
		`SELECT max(total) FROM orders`, // not a scalar function
		`CREATE UNIQUE TABLE t (a INT)`,
		`SELECT * FROM customers ORDER BY`,
		`garbage`,
		`SELECT * FROM customers; extra`,
		`SELECT * FROM customers ORDER BY nosuch`,
		`SELECT name FROM customers ORDER BY n`, // ORDER BY names a column of the table
		`SELECT * FROM customers WHERE nosuch = 1`,
		`SELECT * FROM customers WHERE upper(name, city) = 'X'`,
		// Functions sqlgen never emits: they parse as calls, and fail
		// whatever rows the table holds.
		`SELECT * FROM customers WHERE substr(name, 1, 3) = 'Ada'`,
		`SELECT * FROM customers WHERE concat(city, '-', id) = 'London-2'`,
		`SELECT * FROM customers WHERE replace(city, 'Lon', 'Lun') = 'Lundon'`,
		`SELECT * FROM customers WHERE coalesce(NULL, name) = 'Ada Lovelace'`,
		`SELECT * FROM customers WHERE abs(0 - id) = 1`,
		`SELECT * FROM customers WHERE strlen(city) = 6`,
		`SELECT * FROM orders WHERE abs(total) > 1000000`,
	}
	for _, s := range bad {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("Exec(%q) should fail", s)
		}
	}
	for _, s := range removedForms {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("Exec(%q) should fail", s)
		}
		if _, err := ParseSQL(s); err == nil {
			t.Errorf("ParseSQL(%q) should fail", s)
		}
	}
}

// removedForms are statements outside the dialect, over tables and
// columns that exist, so that only the grammar can refuse them: SELECTs
// with DISTINCT, COUNT(*), a FROM list, JOIN, GROUP BY, HAVING or LIMIT;
// the UPDATE, DELETE and DROP TABLE that append-only tables do not take;
// and the forms sqlgen never emits — a select-list or ORDER BY item that
// is not a column, a select-list alias, a table alias, a qualified
// column, IS [NOT] NULL, postfix NOT LIKE and NOT IN, and <>.
var removedForms = []string{
	`SELECT DISTINCT city FROM customers`,
	`SELECT count(*) FROM customers`,
	`SELECT name FROM customers, orders`,
	`SELECT name FROM customers JOIN orders ON customers.id = orders.cust_id`,
	`SELECT city FROM customers GROUP BY city`,
	`SELECT city FROM customers HAVING id > 1`,
	`SELECT name FROM customers LIMIT 3`,
	`UPDATE customers SET city = 'Paris' WHERE id = 1`,
	`DELETE FROM orders WHERE status = 'cancelled'`,
	`DROP TABLE orders`,
	`SELECT upper(name) FROM customers`,
	`SELECT name + '!' FROM customers`,
	`SELECT name AS n FROM customers`,
	`SELECT 7 / 2 FROM customers`,
	`SELECT name FROM customers c`,
	`SELECT name FROM customers AS c WHERE id = 1`,
	`SELECT customers.name FROM customers`,
	`SELECT name FROM customers WHERE customers.id = 1`,
	`SELECT * FROM customers WHERE since IS NULL`,
	`SELECT * FROM customers WHERE since IS NOT NULL`,
	`SELECT * FROM customers WHERE name NOT LIKE 'A%'`,
	`SELECT * FROM customers WHERE city NOT IN ('London')`,
	`SELECT * FROM customers WHERE city <> 'London'`,
	`SELECT name FROM customers ORDER BY upper(name)`,
	`SELECT total FROM orders ORDER BY total * 2`,
}

// TestScalarFunctions: the four functions sqlgen emits, each over the
// cell's text (length of an INT is its digits). The others are in
// TestSQLErrors' bad list.
func TestScalarFunctions(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`INSERT INTO customers VALUES (15, '  Barbara Liskov ', 'Boston', NULL)`)
	for where, want := range map[string]string{
		`lower(name) = 'ada lovelace'`:          "1",
		`upper(city) = 'LONDON'`:                "1,2",
		`trim(name) = 'Barbara Liskov'`:         "15",
		`trim('  x  ') = 'x' AND id < 2`:        "1",
		`length(city) = 6`:                      "1,2,4,15",
		`length(id) = 2`:                        "15",
		`length(trim(upper(name))) = 14`:        "15",
		`lower(name) LIKE '%hopper'`:            "3",
		`upper(since) = '1990-01-01T00:00:00Z'`: "1",
	} {
		res, err := db.Exec(`SELECT id FROM customers WHERE ` + where)
		if err != nil {
			t.Errorf("%s: %v", where, err)
			continue
		}
		var ids []string
		for _, r := range out(res) {
			ids = append(ids, xmldm.Stringify(r[0]))
		}
		if got := strings.Join(ids, ","); got != want {
			t.Errorf("%s: ids %s, want %s", where, got, want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "abc", true},
		{"a%", "abc", true},
		{"a%", "bac", false},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"", "", true},
		{"", "a", false},
		{"abc", "abc", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%%", "x", true},
		{"_", "x", true},
		{"_", "", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.pattern, c.s, got)
		}
	}
}

// TestNullSemantics: a SELECT reads a NULL cell as the empty text the
// mediator binds it to — in WHERE, through an index and in ORDER BY — so
// NULL equals the empty string, is not equal to 1, sorts after every
// number, and takes part in + as the text "" does; a comparison with a
// NULL literal is false. A unique index still compares the stored values:
// NULLs do not collide with each other or with the empty string.
func TestNullSemantics(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		db := NewDatabase("d")
		db.MustExec(`CREATE TABLE t (a INT, b VARCHAR)`)
		if indexed {
			db.MustExec(`CREATE INDEX ON t (a)`)
			db.MustExec(`CREATE INDEX ON t (b)`)
		}
		db.MustExec(`INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)`)
		for where, want := range map[string]string{
			`a = 1`:          "[[x]]",
			`a != 1`:         "[[null] [y]]",
			`a = NULL`:       "[]",
			`a = ''`:         "[[y]]",
			`b = ''`:         "[[null]]",
			`b IN ('', 'x')`: "[[null] [x]]",
			`a < 2`:          "[[x]]",
			`a > 2`:          "[[null] [y]]",
			`a + 1 = 2`:      "[[x]]",
			`a + 1 = '1'`:    "[[y]]",
			`a + 1 != 2`:     "[[null] [y]]",
			`length(b) = 0`:  "[[null]]",
			`b LIKE '%'`:     "[[null] [x] [y]]",
		} {
			// An index answers in its own order: compare the rows sorted.
			rows := out(db.MustExec(`SELECT b FROM t WHERE ` + where))
			sort.Slice(rows, func(i, j int) bool { return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j]) })
			if got := fmt.Sprint(rows); got != want {
				t.Errorf("indexed=%v %s: %s, want %s", indexed, where, got, want)
			}
		}
		if got := fmt.Sprint(out(db.MustExec(`SELECT b FROM t ORDER BY a`))); got != "[[x] [null] [y]]" {
			t.Errorf("indexed=%v ORDER BY a: %s, want NULL last", indexed, got)
		}
		if _, err := db.Exec(`SELECT b FROM t WHERE a * 0 = 0`); err == nil || !strings.Contains(err.Error(), "arithmetic on non-numeric values") {
			t.Errorf("indexed=%v a * 0 over a NULL: %v, want the error '' * 0 is", indexed, err)
		}
	}
	db := NewDatabase("u")
	db.MustExec(`CREATE TABLE u (k VARCHAR PRIMARY KEY)`)
	db.MustExec(`INSERT INTO u VALUES (NULL), (NULL), ('')`)
	if _, err := db.Exec(`INSERT INTO u VALUES ('')`); err == nil {
		t.Error("a second '' in a unique index should fail")
	}
	if res := db.MustExec(`SELECT * FROM u WHERE k = ''`); len(res.Rows) != 3 || !res.Stats.IndexUsed {
		t.Errorf("k = '' finds %d rows (index used %v), want both NULLs and ''", len(res.Rows), res.Stats.IndexUsed)
	}
}

// TestIntegerAndFloatArithmetic: + - * keep two INTs an INT, and / is
// the mediator's division, a FLOAT for two INTs too (7 / 2 is 3.5, not
// 3), so a pushed predicate holds for the rows it holds for there. A
// number past the int64 range reads as a FLOAT.
func TestIntegerAndFloatArithmetic(t *testing.T) {
	for x, want := range map[string]Value{
		`7 / 2`:        xmldm.Float(3.5),
		`7.0 / 2`:      xmldm.Float(3.5),
		`6 / 3`:        xmldm.Float(2),
		`0 - 7 / 2`:    xmldm.Float(-3.5),
		`7 * 3`:        xmldm.Int(21),
		`7 - 10`:       xmldm.Int(-3),
		`2 + 2.5`:      xmldm.Float(4.5),
		`(1 + 2) / 3`:  xmldm.Float(1),
		`'9' + 1`:      xmldm.Int(10),
		`10 * 1.5 / 2`: xmldm.Float(7.5),
		// Past the int64 range a number is a FLOAT: sqlgen writes
		// floats without an exponent.
		`99999999999999999999`:    xmldm.Float(1e20),
		`0 - 9223372036854775808`: xmldm.Float(-9223372036854775808),
	} {
		stmt, err := ParseSQL(`INSERT INTO t VALUES (` + x + `)`)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalConst(stmt.(*InsertStmt).Rows[0][0])
		if err != nil || got != want {
			t.Errorf("%s = %#v, %v; want %#v", x, got, err, want)
		}
	}
	db := newTestDB(t)
	if got := len(db.MustExec(`SELECT id FROM customers WHERE id / 2 = 1.5`).Rows); got != 1 {
		t.Errorf("id / 2 = 1.5 holds for %d rows, want 1 (id 3)", got)
	}
	if got := len(db.MustExec(`SELECT id FROM customers WHERE id / 2 = 1`).Rows); got != 1 {
		t.Errorf("id / 2 = 1 holds for %d rows, want 1 (id 2)", got)
	}
	if _, err := db.Exec(`SELECT * FROM customers WHERE 1 / 0 = 1`); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestStringConcatWithPlus(t *testing.T) {
	db := newTestDB(t)
	res := db.MustExec(`SELECT id FROM customers WHERE name + '!' = 'Ada Lovelace!'`)
	if got := fmt.Sprint(out(res)); got != "[[1]]" {
		t.Errorf("rows = %s", got)
	}
}

func TestConcurrentReads(t *testing.T) {
	db := newTestDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := db.Exec(`SELECT name FROM customers WHERE id IN (1, 3) ORDER BY name`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSQLCommentsAndCaseInsensitivity(t *testing.T) {
	db := newTestDB(t)
	res := db.MustExec(`select NAME from CUSTOMERS -- trailing comment
		where ID = 1`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestEscapedQuoteInString(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('O''Brien')`)
	res := db.MustExec(`SELECT s FROM t WHERE s = 'O''Brien'`)
	if len(res.Rows) != 1 || xmldm.Stringify(res.Rows[0][0]) != "O'Brien" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestVarcharLengthSuffix(t *testing.T) {
	db := NewDatabase("d")
	if _, err := db.Exec(`CREATE TABLE t (s VARCHAR(64), n DECIMAL(10, 2))`); err != nil {
		t.Fatalf("length suffix: %v", err)
	}
}

func TestMustExecPanics(t *testing.T) {
	db := newTestDB(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "nosuch") {
			t.Error("MustExec should panic with the statement text")
		}
	}()
	db.MustExec(`SELECT * FROM nosuch`)
}
