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
// place with WHERE checked and the select list projected row by row,
// answers what a reference computes from the table's rows: SELECT * in
// table order, WHERE and each select item evaluated per row by evalSQL
// on the parsed statement, unresolved, then ORDER BY id DESC. With an
// index the rows may come in the index's order, so they are compared as
// a multiset, and in table order against the same WHERE with the index
// defeated (OR 1 = 0). Values include NULLs, numeric-looking text and
// numbers stored as text; WHERE mixes =, IN, ranges, !=, LIKE and IS NULL
// over indexed and unindexed columns. Each statement's View, read through
// its column map, answers as its Exec: the same columns, rows, order and
// cells, whether it shares the table's row list (no WHERE), lists the table's rows that pass (a select list of columns, in
// any order, aliased or repeated) or falls back to Exec's projection (an
// expression item).
func TestScanEqualsMaterializedPath_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var shared, mapped, projected int
	texts := []string{"'7'", "'007'", "' 7 '", "'x'", "'New York'", "'Nancy'", "''", "NULL", "'12'", "'inf'"}
	ints := []string{"0", "7", "12", "-3", "NULL"}
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
			col := []string{"id", "n", "s", "u"}[rng.Intn(4)]
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
				return col + " IS NOT NULL"
			}
		}
		var where []string
		for i := rng.Intn(4); i > 0; i-- {
			where = append(where, conj())
		}
		list := []string{"s, id", "*", "u AS a, n + 1, id", "u, n AS s, id, u"}[rng.Intn(4)]
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
			view, err := db.View(sql(w))
			if err != nil {
				t.Fatalf("trial %d: %s: Exec answers, View fails: %v", trial, sql(w), err)
			}
			if got, want := viewed(view), viewed(res); got != want {
				t.Fatalf("trial %d: %s:\nview %s\nexec %s", trial, sql(w), got, want)
			}
			switch {
			case len(view.Rows) > 0 && &view.Rows[0] == &tbl.rows[0]:
				shared++
			case view.pos != nil:
				mapped++
			case !strings.HasPrefix(list, "*"):
				projected++
			}
			return show(res.Rows)
		}
		w := strings.Join(where, " AND ")
		reference := func() string {
			stmt, err := ParseSQL(sql(w))
			if err != nil {
				return "error: " + err.Error()
			}
			st := stmt.(*SelectStmt)
			rs := &rowSet{}
			for _, c := range []string{"id", "n", "s", "u"} {
				rs.cols = append(rs.cols, colKey{qual: "t", name: c})
			}
			var out []Row
			for _, row := range db.MustExec(`SELECT * FROM t`).Rows {
				if st.Where != nil {
					v, err := evalSQL(st.Where, rs, row)
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
				for i, item := range st.Items {
					if proj[i], err = evalSQL(item.Expr, rs, row); err != nil {
						return "error: " + err.Error()
					}
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
	if shared == 0 || mapped == 0 || projected == 0 {
		t.Errorf("Views compared: %d sharing the row list, %d mapped, %d projected; want some of each", shared, mapped, projected)
	}
}

func sorted(rows string) string {
	s := strings.Split(rows, "|")
	sort.Strings(s)
	return strings.Join(s, "|")
}

// TestIndexEqFindsWhatCompareMatches: an = on an indexed column is
// answered by the index alone — it is not checked again on the rows the
// index returns — so the lookup must find exactly what the data model's
// comparison matches: a number named by text, text however it is spelled
// as a number, and no NULL (which the index holds, and = NULL never
// matches).
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
		{`code = ''`, "6"}, // the empty string is not NULL to the database
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

// TestScanAllocatesOnlyTheResult pins what a single-table SELECT costs in
// bytes: the row list, with room for every row read, the projected rows'
// slabs, and a constant for the statement (measured on an empty table) —
// no list of the table's rows before WHERE, which used to be built by
// appending and then copied again. A View of a select list of columns
// projects nothing: unfiltered it shares the table's row list and costs
// the constant alone, filtered it costs its row list.
func TestScanAllocatesOnlyTheResult(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	const n = 2000
	bytesPerExec := func(db *Database, sql string, view bool) float64 {
		stmt, err := ParseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := db.execSelect(stmt.(*SelectStmt), view); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
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
	full, empty := mk(n), mk(0)
	const valueSize, rowSize = 16, 24 // an interface; a slice header
	for _, tc := range []struct {
		sql  string
		view bool
		kept float64 // bytes of the answer over the full table
	}{
		{`SELECT city AS c, id AS i, name AS n, tier AS t FROM customers`, false, n * (4*valueSize + rowSize)},
		{`SELECT * FROM customers`, false, n * rowSize},
		// Half the rows pass, projected into chunks that double.
		{`SELECT name FROM customers WHERE tier = 'gold'`, false, n*rowSize + n/2*valueSize},
		{`SELECT city AS c, id AS i, name AS n, tier AS t FROM customers`, true, 0},
		{`SELECT name FROM customers WHERE tier = 'gold'`, true, n * rowSize},
	} {
		got := bytesPerExec(full, tc.sql, tc.view) - bytesPerExec(empty, tc.sql, tc.view)
		if limit := 1.1*tc.kept + 4096; got > limit {
			t.Errorf("%s (view %v) allocates %.0f bytes over %d rows, want at most %.0f (it keeps %.0f)", tc.sql, tc.view, got, n, limit, tc.kept)
		}
	}
}
