package rdb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseSQLNeverPanics_Property: the SQL parser handles arbitrary
// token soup without panicking — it receives generated fragments in
// production, but a substrate library must not crash on bad input.
func TestParseSQLNeverPanics_Property(t *testing.T) {
	pieces := []string{
		"SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "CREATE",
		"TABLE", "INDEX", "UNIQUE", "PRIMARY", "KEY", "UPDATE", "SET",
		"DELETE", "DROP", "JOIN", "ON", "GROUP", "BY", "HAVING", "ORDER",
		"LIMIT", "AND", "OR", "NOT", "LIKE", "IN", "IS", "NULL", "AS",
		"count", "t", "a", "b", "*", ",", "(", ")", "=", "<", ">", "<=",
		">=", "<>", "!=", "+", "-", "/", ".", "'str'", "''", "1", "2.5",
		";", "--c\n", "'unterminated",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			sb.WriteByte(' ')
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseSQL panicked on %q: %v", sb.String(), r)
			}
		}()
		_, _ = ParseSQL(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestExecRandomStatementsNeverPanic drives random (mostly invalid)
// statements against a live database: errors are fine, panics are not,
// and the table must stay consistent for valid queries afterwards.
func TestExecRandomStatementsNeverPanic(t *testing.T) {
	db := NewDatabase("f")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	stmts := []string{
		`SELECT * FROM t WHERE id = id`,
		`SELECT v, id, v FROM t WHERE id = id`,
		`SELECT * FROM t ORDER BY v DESC, id ASC`,
		`SELECT id FROM t WHERE id + id * id - id / 1 > 0`,
		`SELECT * FROM t WHERE v LIKE '%' AND NOT v LIKE '_______________'`,
		`SELECT v FROM t WHERE NOT (id = NULL OR v = NULL)`,
		`SELECT v FROM t WHERE upper(lower(upper(v))) = 'A'`,
		`INSERT INTO t (v, id) VALUES ('c', 3)`,
		`SELECT * FROM t WHERE NOT NOT id IN (1, 2, 3)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	if got := len(db.MustExec(`SELECT id FROM t`).Rows); got != 3 {
		t.Errorf("final count = %d", got)
	}
}
