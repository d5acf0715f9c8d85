package rdb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/xmldm"
)

// TestConcurrentRangeSelectsOnFreshIndex: range SELECTs hold only the
// read lock, and the first one after an INSERT sorts the index. Eight
// goroutines reaching a freshly loaded index at once must each get every
// row in range, with no data race on the sort (run under -race).
func TestConcurrentRangeSelectsOnFreshIndex(t *testing.T) {
	for round := 0; round < 4; round++ {
		db := NewDatabase("d")
		db.MustExec(`CREATE TABLE orders (oid INT PRIMARY KEY, amount INT)`)
		db.MustExec(`CREATE INDEX ON orders (amount)`)
		const n = 500
		for i := 0; i < n; i++ {
			// Inserted out of order, so the sort has work to do.
			if err := db.Insert("orders", Row{xmldm.Int(i), xmldm.Int((i * 7919) % n)}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lo := g * 50
				res, err := db.Exec(fmt.Sprintf(`SELECT oid FROM orders WHERE amount >= %d AND amount < %d`, lo, lo+50))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 50 || !res.Stats.IndexUsed {
					t.Errorf("range [%d, %d): %d rows, index %v; want 50 through the index", lo, lo+50, len(res.Rows), res.Stats.IndexUsed)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestUpdateCopiesOnWrite: UPDATE replaces a row instead of writing into
// it, so a SELECT * answer taken before it — which shares the table's
// rows — still reads the old values, and every SET reads the old row, so
// SET a = b, b = a swaps.
func TestUpdateCopiesOnWrite(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR, b VARCHAR)`)
	db.MustExec(`CREATE INDEX ON t (a)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'x', 'y'), (2, 'p', 'q')`)
	before := db.MustExec(`SELECT * FROM t`)

	if res := db.MustExec(`UPDATE t SET a = b, b = a WHERE id = 1`); res.Affected != 1 {
		t.Fatalf("updated %d rows, want 1", res.Affected)
	}
	if got := fmt.Sprint(before.Rows); got != "[[1 x y] [2 p q]]" {
		t.Errorf("a SELECT * answer taken before the UPDATE reads %s", got)
	}
	if got := fmt.Sprint(db.MustExec(`SELECT * FROM t`).Rows); got != "[[1 y x] [2 p q]]" {
		t.Errorf("after SET a = b, b = a: %s, want the swap", got)
	}
	// The index follows the new row.
	for _, tc := range []struct{ where, want string }{{`a = 'y'`, "[[1]]"}, {`a = 'x'`, "[]"}} {
		res := db.MustExec(`SELECT id FROM t WHERE ` + tc.where)
		if got := fmt.Sprint(res.Rows); !res.Stats.IndexUsed || got != tc.want {
			t.Errorf("%s: %s (index %v), want %s", tc.where, got, res.Stats.IndexUsed, tc.want)
		}
	}
	// A column set twice takes its last value, indexed once.
	db.MustExec(`UPDATE t SET a = 'm', a = 'n' WHERE id = 2`)
	if got := fmt.Sprint(db.MustExec(`SELECT id FROM t WHERE a = 'n'`).Rows); got != "[[2]]" {
		t.Errorf("a = 'n' after SET a = 'm', a = 'n': %s", got)
	}
	if got := fmt.Sprint(db.MustExec(`SELECT id FROM t WHERE a = 'm'`).Rows); got != "[]" {
		t.Errorf("a = 'm' after SET a = 'm', a = 'n': %s", got)
	}
}

// TestUpdateUnderConcurrentReaders: readers take SELECT * answers and
// read their cells after the lock is released, as RelationalSource does
// to export a table, while an updater rewrites every row. Each answer
// must read as one version of every row (run under -race).
func TestUpdateUnderConcurrentReaders(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)`)
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 0, 0)`, i))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := db.Exec(`SELECT * FROM t`)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					// One UPDATE sets a and b together.
					if xmldm.Compare(row[1], row[2]) != 0 {
						t.Errorf("row %v reads a and b from different versions", row)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 100; i++ {
		db.MustExec(fmt.Sprintf(`UPDATE t SET a = %d, b = %d`, i, i))
	}
	close(done)
	wg.Wait()
}

// viewed is a View answer as its reader sees it: each row's output
// columns, read through Pos.
func viewed(res *Result) string {
	rows := make([]Row, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = make(Row, len(res.Columns))
		for i := range res.Columns {
			rows[r][i] = row[res.Pos(i)]
		}
	}
	return fmt.Sprint(res.Columns, rows)
}

// TestViewSurvivesLaterWrites: a View answer shares the table's rows —
// an unfiltered scan the row list itself — so the writes after it must
// leave every answer reading as it did: an INSERT into the list's spare
// capacity, an UPDATE of every row (which must copy the list, not write
// the shared one), a DELETE, and more of each. A second round takes
// answers on four goroutines while the writes run, and checks that each
// reads as one version of every row, twice alike (run under -race).
func TestViewSurvivesLaterWrites(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR, b INT)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'v1', 1), (2, 'v2', 2), (3, 'v3', 3), (4, 'v4', 4), (5, 'v5', 5)`)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT b, id, a FROM t`,                // the shared row list
		`SELECT a AS x, id FROM t WHERE id = 2`, // through the index
		`SELECT b, a FROM t WHERE b > 2`,        // a residual WHERE
		`SELECT a, b FROM t ORDER BY b DESC`,
	}
	answers := make([]*Result, len(queries))
	before := make([]string, len(queries))
	for i, q := range queries {
		if answers[i], err = db.View(q); err != nil {
			t.Fatal(err)
		}
		before[i] = viewed(answers[i])
	}
	if &answers[0].Rows[0] != &tbl.rows[0] || !answers[1].Stats.IndexUsed {
		t.Fatal("the unfiltered View does not share the row list, or id = 2 is not indexed")
	}
	if len(tbl.rows) == cap(tbl.rows) {
		t.Fatalf("the row list has no spare capacity (%d) for the INSERT to land in", cap(tbl.rows))
	}
	for _, w := range []string{
		`INSERT INTO t VALUES (6, 'v6', 6)`,
		`UPDATE t SET a = 'changed', b = b + 100`,
		`DELETE FROM t WHERE id = 3`,
		`INSERT INTO t VALUES (7, 'v7', 7)`,
		`UPDATE t SET a = 'again' WHERE id = 2`,
	} {
		db.MustExec(w)
		for i, q := range queries {
			if got := viewed(answers[i]); got != before[i] {
				t.Fatalf("after %s, %s reads %s, want %s", w, q, got, before[i])
			}
		}
	}
	if got := viewed(db.MustExec(`SELECT b, id, a FROM t`)); got == before[0] {
		t.Fatal("the writes did not reach the table")
	}

	// A fresh table, whose list is shared until the first DELETE. Every
	// write sets a to b's text, so a row reads as one version when the
	// two agree.
	db.MustExec(`CREATE TABLE u (id INT PRIMARY KEY, a VARCHAR, b INT)`)
	db.MustExec(`INSERT INTO u VALUES (1, '0', 0), (2, '0', 0), (3, '0', 0)`)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := db.View(q)
				if err != nil {
					t.Error(err)
					return
				}
				first := viewed(res)
				for _, row := range res.Rows {
					if x, y := row[res.Pos(0)], row[res.Pos(1)]; xmldm.Stringify(x) != xmldm.Stringify(y) {
						t.Errorf("%s: row %v reads a and b from different versions", q, row)
						return
					}
				}
				runtime.Gosched()
				if again := viewed(res); again != first {
					t.Errorf("%s read %s, then %s", q, first, again)
					return
				}
			}
		}([]string{`SELECT b, a FROM u`, `SELECT a, b, id FROM u WHERE b >= 0`}[r%2])
	}
	for i := 1; i <= 100; i++ {
		db.MustExec(fmt.Sprintf(`UPDATE u SET a = '%d', b = %d WHERE id > 1`, i, i))
		db.MustExec(fmt.Sprintf(`INSERT INTO u VALUES (%d, '%d', %d)`, 100+i, i, i))
		if i > 80 {
			db.MustExec(fmt.Sprintf(`DELETE FROM u WHERE id = %d`, 100+i-1))
		}
	}
	close(done)
	wg.Wait()
}
