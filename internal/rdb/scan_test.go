package rdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/testkit"
	"repro/internal/xmldm"
)

// TestScanEqualsMaterializedPath_Property: a single-table SELECT, read in
// place with WHERE checked row by row, answers what a reference computes
// from the table's rows: the rows in table order, WHERE evaluated on each
// by evalSQL over the parsed statement with its columns looked up by the
// reference (no index, no residual), each select item read from the
// column it names, then ORDER BY id DESC. With an index the rows may come
// in the index's order, so they are compared as a multiset, and in table
// order against the same WHERE with the index defeated (OR 1 = 0).
// Values include NULLs, numeric-looking text and numbers stored as text;
// WHERE mixes =, IN, ranges, !=, LIKE, NOT and arithmetic over indexed
// and unindexed columns. Every answer reads its cells through Pos and
// their texts through Text, and shares the table's rows: the row list
// itself when nothing filters, else a list of the rows that pass (a
// select list of columns in any order, repeated or not, or *).
func TestScanEqualsMaterializedPath_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var shared, listed int
	texts := []string{"'7'", "'007'", "' 7 '", "'x'", "'New York'", "'Nancy'", "''", "NULL", "'12'", "'inf'"}
	ints := []string{"0", "7", "12", "-3", "NULL"}
	columns := []string{"id", "n", "s", "u"}
	for trial := 0; trial < 300; trial++ {
		db := NewDatabase("p")
		db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, n INT, s VARCHAR, u VARCHAR)`)
		if rng.Intn(2) == 0 {
			db.MustExec(`CREATE INDEX ON t (s)`)
		}
		if rng.Intn(2) == 0 {
			db.MustExec(`CREATE INDEX ON t (n)`)
		}
		rows := rng.Intn(30)
		for i := 0; i < rows; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %s, %s, %s)`, i,
				ints[rng.Intn(len(ints))], texts[rng.Intn(len(texts))], texts[rng.Intn(len(texts))]))
		}

		conj := func() string {
			col := columns[rng.Intn(4)]
			lit := texts[rng.Intn(len(texts))]
			if col == "id" || col == "n" {
				lit = ints[rng.Intn(len(ints))]
			}
			switch rng.Intn(7) {
			case 0, 1:
				return col + " = " + lit
			case 2:
				return fmt.Sprintf("%s IN (%s, %s)", col, lit, texts[rng.Intn(len(texts))])
			case 3:
				return col + " >= " + lit
			case 4:
				return col + " != " + lit
			case 5:
				return col + " LIKE '%7%'"
			default:
				if col == "id" || col == "n" {
					return "NOT " + col + " / 2 < " + lit
				}
				return "NOT upper(" + col + ") LIKE '%NA%'"
			}
		}
		var where []string
		for i := rng.Intn(4); i > 0; i-- {
			where = append(where, conj())
		}
		list := []string{"s, id", "*", "u, n, id", "u, n, id, u"}[rng.Intn(4)]
		desc := rng.Intn(2) == 0
		sql := func(w string) string {
			sql := "SELECT " + list + " FROM t"
			if w != "" {
				sql += " WHERE " + w
			}
			if desc {
				sql += " ORDER BY id DESC"
			}
			return sql
		}
		show := func(rows []Row) string {
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = fmt.Sprint(r)
			}
			return strings.Join(out, "|")
		}
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		run := func(w string) string {
			res, err := db.Exec(sql(w))
			if err != nil {
				return "error: " + err.Error()
			}
			switch {
			case len(res.Rows) > 0 && &res.Rows[0] == &tbl.rows[0]:
				shared++
			case len(res.Rows) > 0:
				listed++
			}
			for _, row := range res.Rows {
				for i := range res.Columns {
					if c, x := row[res.Pos(i)], res.Text(row, i); (c.Kind() == xmldm.KindNull) != (x == nil) || x != nil && x != xmldm.String(xmldm.Stringify(c)) {
						t.Fatalf("trial %d: %s: cell %v has text %#v", trial, sql(w), c, x)
					}
				}
			}
			return show(out(res))
		}
		w := strings.Join(where, " AND ")
		reference := func() string {
			stmt, err := ParseSQL(sql(w))
			if err != nil {
				return "error: " + err.Error()
			}
			st := stmt.(*SelectStmt)
			where := mapSQL(st.Where, func(_, cur SQLExpr) SQLExpr {
				if c, ok := cur.(*ColRef); ok {
					return &colAt{slices.Index(columns, c.Col)}
				}
				return cur
			})
			var out []Row
			for _, row := range tbl.rows {
				if where != nil {
					v, err := evalSQL(where, row)
					if err != nil {
						return "error: " + err.Error()
					}
					if !xmldm.Truthy(v) {
						continue
					}
				}
				if st.Star {
					out = append(out, row)
					continue
				}
				proj := make(Row, len(st.Items))
				for i, col := range st.Items {
					proj[i] = row[slices.Index(columns, col)]
				}
				out = append(out, proj)
			}
			if desc {
				slices.Reverse(out) // table order is id order
			}
			return show(out)
		}()
		scanned := run("")
		if w != "" {
			scanned = run("(" + w + ") OR 1 = 0")
		}
		indexed := run(w)
		if scanned != reference {
			t.Fatalf("trial %d: %s:\nscanned   %s\nreference %s", trial, sql(w), scanned, reference)
		}
		if sorted(indexed) != sorted(reference) {
			t.Fatalf("trial %d: %s:\nindexed   %s\nreference %s", trial, sql(w), indexed, reference)
		}
	}
	if shared == 0 || listed == 0 {
		t.Errorf("answers compared: %d sharing the row list, %d listing the rows that pass; want some of each", shared, listed)
	}
}

func sorted(rows string) string {
	s := strings.Split(rows, "|")
	sort.Strings(s)
	return strings.Join(s, "|")
}

// TestIndexKeepsTheScansErrors: a scan evaluates WHERE's conjuncts left
// to right on every row, so a conjunct that fails on a row fails the
// SELECT even where a later conjunct rules that row out. An index on the
// later conjunct must not hide the error; one on an earlier conjunct
// still serves, since the scan never reaches the failing one on the rows
// it skips.
func TestIndexKeepsTheScansErrors(t *testing.T) {
	show := func(res *Result) string {
		var ids []string
		for _, r := range res.Rows {
			ids = append(ids, xmldm.Stringify(r[res.Pos(0)]))
		}
		return strings.Join(ids, ",")
	}
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, n VARCHAR, k INT)`)
	db.MustExec(`CREATE INDEX ON t (k)`)
	db.MustExec(`INSERT INTO t VALUES (1, '4', 1), (2, NULL, 2)`) // row 2 reads n / 2 as '' / 2
	for _, tc := range []struct {
		where   string
		want    string // the ids, or "error"
		indexed bool
	}{
		{`n / 2 < 12 AND id = 1`, "error", false},
		{`n / 2 < 12 AND k IN (1)`, "error", false},
		{`k = 1 AND n / 2 < 12`, "1", true},
		{`id >= 1 AND id < 2 AND n / 2 < 12`, "1", true},
		{`n LIKE '4' AND k = 1 AND n / 2 < 12`, "1", true},
	} {
		got, indexed := "error", false
		if res, err := db.Exec(`SELECT id FROM t WHERE ` + tc.where); err == nil {
			got, indexed = show(res), res.Stats.IndexUsed
		}
		if got != tc.want || indexed != tc.indexed {
			t.Errorf("%s: %s (index %v); want %s (index %v)", tc.where, got, indexed, tc.want, tc.indexed)
		}
	}
}

// TestIndexEqFindsWhatCompareMatches: an = on an indexed column is
// answered by the index alone — it is not checked again on the rows the
// index returns — so the lookup must find exactly what the data model's
// comparison matches on the cells as WHERE reads them: a number named by
// text, text however it is spelled as a number, a NULL cell as the empty
// string the mediator binds it to, and nothing for = NULL.
func TestIndexEqFindsWhatCompareMatches(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, code VARCHAR, n INT)`)
	db.MustExec(`CREATE INDEX ON t (code)`)
	db.MustExec(`CREATE INDEX ON t (n)`)
	db.MustExec(`INSERT INTO t VALUES (7, '007', 1), (12, 'x', NULL), (3, '7', 7), (5, NULL, NULL), (6, '', 7)`)
	for _, tc := range []struct {
		where string
		ids   string
	}{
		{`id = '007'`, "7"},
		{`id = ' 12 '`, "12"},
		{`id = 7.0`, "7"},
		{`code = '7'`, "7,3"},
		{`code = 7`, "7,3"},
		{`code = 'x' AND id > 0`, "12"},
		{`code = ''`, "5,6"}, // a NULL cell reads as ''
		{`n = ''`, "12,5"},
		{`code = NULL`, ""},
		{`n = NULL`, ""},
		{`n = '7' AND code != ''`, "3"}, // the other conjuncts still filter
	} {
		res := db.MustExec(`SELECT id FROM t WHERE ` + tc.where)
		var ids []string
		for _, r := range res.Rows {
			ids = append(ids, xmldm.Stringify(r[0]))
		}
		if got := strings.Join(ids, ","); !res.Stats.IndexUsed || got != tc.ids {
			t.Errorf("%s: index=%v rows=%s, want %s", tc.where, res.Stats.IndexUsed, got, tc.ids)
		}
		// A scan that checks every row finds the same rows.
		scan := db.MustExec(`SELECT id FROM t WHERE (` + tc.where + `) OR 1 = 0`)
		if scan.Stats.IndexUsed || fmt.Sprint(scan.Rows) != fmt.Sprint(res.Rows) {
			t.Errorf("%s: full scan (index=%v) finds %v, the index %v", tc.where, scan.Stats.IndexUsed, scan.Rows, res.Rows)
		}
	}
}

// TestScanAllocatesOnlyTheResult pins what a single-table SELECT costs:
// in bytes, the row list, with room for every row read, and a constant
// for the statement (measured on an empty table) — no list of the table's
// rows before WHERE and no copy of a row. Unfiltered, it shares the
// table's row list and costs the constant alone. In allocations, a SELECT
// that filters costs as many over 2000 rows as over 200, ORDER BY
// included: it keeps no list of the rows it reads, and makes one list for
// the rows that pass.
func TestScanAllocatesOnlyTheResult(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	const n = 2000
	stmt := func(sql string) *SelectStmt {
		st, err := ParseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*SelectStmt)
	}
	bytesPerExec := func(db *Database, sql string) float64 {
		st := stmt(sql)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := db.execSelect(st); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs := func(db *Database, sql string) float64 {
		st := stmt(sql)
		return testing.AllocsPerRun(20, func() {
			if _, err := db.execSelect(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	mk := func(rows int) *Database {
		db := NewDatabase("crm")
		db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
		for i := 0; i < rows; i++ {
			if err := db.Insert("customers", Row{xmldm.Int(i), xmldm.String(fmt.Sprint("N", i)), xmldm.String("Oslo"), xmldm.String([]string{"gold", "silver"}[i%2])}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	full, small, empty := mk(n), mk(n/10), mk(0)
	const rowSize = 24 // a slice header
	for _, tc := range []struct {
		sql  string
		kept float64 // bytes of the answer over the full table
	}{
		{`SELECT city, id, name, tier FROM customers`, 0},
		{`SELECT * FROM customers`, 0},
		{`SELECT name FROM customers WHERE tier = 'gold'`, n * rowSize},
		{`SELECT * FROM customers WHERE tier = 'gold' ORDER BY name DESC`, n * rowSize},
		// WHERE reads an INT cell of every row (OR defeats the index), past
		// the small integers Go boxes without allocating.
		{`SELECT name FROM customers WHERE tier = 'gold' OR id > 1000`, n * rowSize},
	} {
		got := bytesPerExec(full, tc.sql) - bytesPerExec(empty, tc.sql)
		if limit := 1.1*tc.kept + 4096; got > limit {
			t.Errorf("%s allocates %.0f bytes over %d rows, want at most %.0f (it keeps %.0f)", tc.sql, got, n, limit, tc.kept)
		}
		if s, l := allocs(small, tc.sql), allocs(full, tc.sql); l != s {
			t.Errorf("%s allocates %v times over %d rows and %v over %d, want the same", tc.sql, s, n/10, l, n)
		}
	}
}
