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

// viewed is an answer as its reader sees it: each row's output columns,
// read through Pos, and their texts, read through Text.
func viewed(res *Result) string {
	rows := make([]Row, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = make(Row, 2*len(res.Columns))
		for i := range res.Columns {
			rows[r][i] = row[res.Pos(i)]
			rows[r][len(res.Columns)+i] = res.Text(row, i)
		}
	}
	return fmt.Sprint(res.Columns, rows)
}

// TestViewSurvivesLaterWrites: an answer shares the table's rows — an
// unfiltered scan the row list itself — and the texts stored with
// them, so the INSERTs after it must leave every answer reading as it
// did, cells and texts: one into the list's spare capacity, then enough
// to reallocate the list, then a multi-row INSERT. A second round takes
// answers on four goroutines while a writer only inserts, and checks
// that each reads as one version of every row, twice alike (run under
// -race).
func TestViewSurvivesLaterWrites(t *testing.T) {
	db := NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR, b INT)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'v1', 1), (2, 'v2', 2), (3, 'v3', 3), (4, 'v4', 4), (5, 'v5', 5)`)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT b, id, a FROM t`,           // the shared row list
		`SELECT a, id FROM t WHERE id = 2`, // through the index
		`SELECT b, a FROM t WHERE b > 2`,   // a residual WHERE
		`SELECT a, b FROM t ORDER BY b DESC`,
	}
	answers := make([]*Result, len(queries))
	before := make([]string, len(queries))
	for i, q := range queries {
		if answers[i], err = db.Exec(q); err != nil {
			t.Fatal(err)
		}
		before[i] = viewed(answers[i])
	}
	if &answers[0].Rows[0] != &tbl.rows[0] || !answers[1].Stats.IndexUsed {
		t.Fatal("the unfiltered answer does not share the row list, or id = 2 is not indexed")
	}
	spare := cap(tbl.rows)
	if len(tbl.rows) == spare {
		t.Fatalf("the row list has no spare capacity (%d) for the INSERT to land in", spare)
	}
	var writes []string
	for id := len(tbl.rows) + 1; id <= spare+1; id++ {
		writes = append(writes, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d', %d)`, id, id, id))
	}
	writes = append(writes, `INSERT INTO t VALUES (100, 'w', 1), (101, 'w', 2), (102, 'w', 3)`)
	for _, w := range writes {
		db.MustExec(w)
		for i, q := range queries {
			if got := viewed(answers[i]); got != before[i] {
				t.Fatalf("after %s, %s reads %s, want %s", w, q, got, before[i])
			}
		}
	}
	if cap(tbl.rows) == spare {
		t.Fatal("the INSERTs did not reallocate the row list")
	}
	if got := viewed(db.MustExec(`SELECT b, id, a FROM t`)); got == before[0] {
		t.Fatal("the writes did not reach the table")
	}

	// A fresh table, whose list is shared while the writer inserts single
	// rows and multi-row INSERTs. Every row's a is b's text, so a row
	// reads as one version when the two agree, and so do their texts.
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
				res, err := db.Exec(q)
				if err != nil {
					t.Error(err)
					return
				}
				first := viewed(res)
				for _, row := range res.Rows {
					if x, y := row[res.Pos(0)], row[res.Pos(1)]; xmldm.Stringify(x) != xmldm.Stringify(y) || res.Text(row, 0) != res.Text(row, 1) {
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
		db.MustExec(fmt.Sprintf(`INSERT INTO u VALUES (%d, '%d', %d)`, 10*i, i, i))
		if i%10 == 0 {
			db.MustExec(fmt.Sprintf(`INSERT INTO u VALUES (%d, '%d', %d), (%d, '%d', %d)`, 10*i+1, i, i, 10*i+2, i, i))
		}
	}
	close(done)
	wg.Wait()
}
