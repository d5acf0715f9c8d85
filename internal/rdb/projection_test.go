package rdb

import (
	"fmt"
	"testing"

	"repro/internal/testkit"
	"repro/internal/xmldm"
)

// TestProjectedRowsDoNotAlias: projected rows are carved from one slab,
// each capped at its own length, so appending to one result row never
// writes into the next; and the shapes around the projection — ORDER BY
// on a column it drops, SELECT * sharing the table's rows — answer as
// they did.
func TestProjectedRowsDoNotAlias(t *testing.T) {
	db := newTestDB(t)
	res := db.MustExec(`SELECT name, city FROM customers ORDER BY id DESC`)
	if len(res.Rows) != 4 || cap(res.Rows[0]) != 2 {
		t.Fatalf("rows = %v, first capped at %d", res.Rows, cap(res.Rows[0]))
	}
	grown := append(res.Rows[0], xmldm.String("extra"))
	grown[0] = xmldm.String("changed")
	if got := xmldm.Stringify(res.Rows[1][0]); got != "Grace Hopper" {
		t.Errorf("appending to row 0 changed row 1 to %q", got)
	}
	if got := xmldm.Stringify(res.Rows[0][0]); got != "Edsger Dijkstra" {
		t.Errorf("an append that reallocated wrote row 0's name: %q", got)
	}

	for _, tc := range []struct {
		sql  string
		want string
	}{
		{`SELECT name FROM customers ORDER BY since DESC`, `[[Edsger Dijkstra] [Grace Hopper] [Alan Turing] [Ada Lovelace]]`},
		{`SELECT city, id FROM customers WHERE city = 'London'`, `[[London 1] [London 2]]`},
	} {
		if got := fmt.Sprint(db.MustExec(tc.sql).Rows); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
	star := db.MustExec(`SELECT * FROM customers`)
	if again := db.MustExec(`SELECT * FROM customers`); &star.Rows[0][0] != &again.Rows[0][0] {
		t.Error("SELECT * no longer shares the table's rows")
	}
}

// TestProjectionAllocatesPerResult pins the projection's cost: over a
// 300-row table it allocates a constant number of times more than
// SELECT *, which shares the table's rows — the slab, the row list and
// the column names, nothing per row. A residual WHERE that passes five
// rows allocates as often over 3000 rows as over 300: the scan keeps no
// list of the rows it reads, and makes room for the rows that pass.
func TestProjectionAllocatesPerResult(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	mk := func(rows int) *Database {
		db := NewDatabase("crm")
		db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
		for i := 0; i < rows; i++ {
			city := "Oslo"
			if i < 5 {
				city = "Bergen"
			}
			if err := db.Insert("customers", Row{xmldm.Int(i), xmldm.String(fmt.Sprint("N", i)), xmldm.String(city), xmldm.String("gold")}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	allocs := func(db *Database, sql string) float64 {
		stmt, err := ParseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := mk(300), mk(3000)
	star := allocs(small, `SELECT * FROM customers`)
	if extra := allocs(small, `SELECT city AS c, id AS i, name AS n, tier AS t FROM customers`) - star; extra > 3 {
		t.Errorf("projecting 300 rows allocates %v times more than SELECT *, want at most 3", extra)
	}
	for _, sql := range []string{
		`SELECT id, name FROM customers WHERE city = 'Bergen'`,
		`SELECT * FROM customers WHERE city = 'Bergen'`,
		`SELECT id FROM customers WHERE city = 'Bergen' ORDER BY name`,
	} {
		if s, l := allocs(small, sql), allocs(large, sql); l != s {
			t.Errorf("%s allocates %v times over 300 rows and %v over 3000, want the same", sql, s, l)
		}
	}
}
