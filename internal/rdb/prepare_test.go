package rdb

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// execParsed is Exec without the statement cache: ParseSQL, then
// ExecStmt.
func execParsed(t *testing.T, db *Database, sql string) string {
	t.Helper()
	stmt, err := ParseSQL(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	res, err := db.ExecStmt(stmt)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Columns, out(res))
}

func execCached(t *testing.T, db *Database, sql string) string {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Columns, out(res))
}

// TestExecBindsPreparedSelect: a SELECT whose shape Exec has parsed is
// bound, not parsed — new literals and LIKE patterns included — and
// answers what parsing it answers; a text that differs in a token other
// than those (a select list naming other columns among them), or does not
// parse (a select-list alias among them), is parsed, with the parser's
// error.
func TestExecBindsPreparedSelect(t *testing.T) {
	db := newTestDB(t)
	for _, tc := range []struct {
		sql string
		hit bool
	}{
		{`SELECT name, id FROM customers WHERE city = 'London' AND id >= 1 ORDER BY id DESC`, false},
		{`SELECT name, id FROM customers WHERE city = 'Austin' AND id >= 0 ORDER BY id DESC`, true},
		{`select   name, id FROM customers WHERE city='London' AND id >= 2 ORDER BY id DESC`, false},
		{`SELECT name, id FROM customers WHERE city = 'London' AND id >= 2 ORDER BY id DESC`, true},
		{`SELECT name, id FROM customers WHERE city = 'London' AND id >= 2.5 ORDER BY id DESC`, true},
		{`SELECT name, id FROM customers WHERE city = 'London' AND id >= 1.2.3 ORDER BY id DESC`, false},
		{`SELECT id, name FROM customers WHERE city = 'London' AND id >= 2 ORDER BY id DESC`, false},
		{`SELECT name AS n, id FROM customers WHERE city = 'London' AND id >= 2 ORDER BY id DESC`, false},
		{`SELECT name FROM customers WHERE name LIKE 'A%' OR id IN (3, 4)`, false},
		{`SELECT name FROM customers WHERE name LIKE '%ace' OR id IN (1, 9)`, true},
		{`SELECT name FROM customers WHERE name LIKE '%ace' OR city IN (1, 9)`, false},
		{`SELECT name, city FROM customers WHERE id * -1 < -1 AND NOT lower(city) IN ('paris') ORDER BY city, id DESC`, false},
		{`SELECT name, city FROM customers WHERE id * -2 < -4 AND NOT lower(city) IN ('austin') ORDER BY city, id DESC`, true},
	} {
		before := db.PreparedStats()
		want := execParsed(t, db, tc.sql)
		if got := execCached(t, db, tc.sql); got != want {
			t.Errorf("%s\n got %s\nwant %s", tc.sql, got, want)
		}
		after := db.PreparedStats()
		if hit := after.Hits > before.Hits; hit != tc.hit || after.Hits+after.Misses != before.Hits+before.Misses+1 {
			t.Errorf("%s: stats %+v -> %+v, want hit %v", tc.sql, before, after, tc.hit)
		}
	}
	if n := db.PreparedStats().Entries; n != 6 {
		t.Errorf("%d entries, want 6", n)
	}
}

// TestPreparedSelectSurvivesTableChanges: a parsed statement is syntax,
// so no change to the database makes it stale — a SELECT cached while
// its table does not exist resolves its columns against the table once it
// is created, with the columns in another order than the text names them.
func TestPreparedSelectSurvivesTableChanges(t *testing.T) {
	db := NewDatabase("d")
	q := func(n int) string { return fmt.Sprintf(`SELECT b FROM t WHERE a = %d`, n) }
	if got := execCached(t, db, q(1)); !strings.Contains(got, "no such table") {
		t.Fatalf("before CREATE: %s", got)
	}
	db.MustExec(`CREATE TABLE t (b VARCHAR, c INT, a INT PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t VALUES ('z', 7, 2), ('y', 8, 1)`)
	if got := execCached(t, db, q(2)); got != "[b] [[z]]" {
		t.Errorf("created: %s", got)
	}
	if got := execCached(t, db, q(1)); got != "[b] [[y]]" {
		t.Errorf("created: %s", got)
	}
	if st := db.PreparedStats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats %+v, want one parse", st)
	}
}

// respellSQL rewrites sql with every literal (each a slot a prepared
// statement rebinds) replaced: a string by 'p<i>', a number by 7<i>.
func respellSQL(sql string, toks []sqlTok) string {
	var sb strings.Builder
	last, k := 0, 0
	for _, tk := range toks {
		if !sqlLifted(tk) {
			continue
		}
		k++
		sb.WriteString(sql[last:tk.pos])
		switch tk.kind {
		case "str":
			sb.WriteString("'p" + strconv.Itoa(k) + "'")
			last = tk.pos + 1
			for last < len(sql) && (sql[last] != '\'' || strings.HasPrefix(sql[last:], "''")) {
				if sql[last] == '\'' {
					last++
				}
				last++
			}
			last++
		default: // a number
			sb.WriteString("7" + strconv.Itoa(k))
			for last = tk.pos; last < len(sql) && (sql[last] >= '0' && sql[last] <= '9' || sql[last] == '.'); last++ {
			}
		}
	}
	sb.WriteString(sql[last:])
	return sb.String()
}

// checkPrepared is the cached path's half of FuzzParseSQL: through a
// fresh statement cache, src parses (a miss) and then binds (a hit) to
// what ParseSQL makes of it, with the same error if any; and a SELECT
// respelled in every rebound slot binds to what ParseSQL makes of that.
func checkPrepared(t *testing.T, src string) {
	want, werr := ParseSQL(src)
	var c stmtCache
	for pass := 0; pass < 2; pass++ {
		got, err := c.parse(src)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d of %q: %#v, %v; ParseSQL: %#v, %v", pass, src, got, err, want, werr)
		}
	}
	if werr != nil || len(c.entries) == 0 {
		return
	}
	toks, err := sqlLex(src)
	if err != nil {
		t.Fatal(err)
	}
	alt := respellSQL(src, toks)
	want, werr = ParseSQL(alt)
	if werr != nil {
		t.Fatalf("respelled %q does not parse: %v", alt, werr)
	}
	hits := c.hits.Load()
	got, err := c.parse(alt)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q bound to %#v, %v; ParseSQL: %#v", alt, got, err, want)
	}
	if c.hits.Load() != hits+1 {
		t.Fatalf("respelling %q as %q changed its shape", src, alt)
	}
}
