package rdb

import "testing"

// FuzzParseSQL is the native fuzz target for the SQL parser: it must not
// panic, and Exec's cached path must parse what it parses (checkPrepared).
// Run with:
//
//	go test -fuzz=FuzzParseSQL ./internal/rdb
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		`SELECT a, upper(b) AS u FROM t WHERE a LIKE 'x%' AND b IS NULL ORDER BY a DESC, b * 2`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, 'O''Brien')`,
		`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(64))`,
		`UPDATE t SET a = a + 1 WHERE b IS NOT NULL`,
		`DELETE FROM t WHERE a IN (1, 2) OR NOT b LIKE '_'`,
		`SELECT 'unterminated`,
		`SELECT c.city AS v_c, c.id AS v_i FROM customers AS c WHERE (c.tier = 'O''Neil') AND (-3 < c.id) AND c.name NOT LIKE '%x' AND c.id NOT IN (1.5, 2)`,
	}
	for _, s := range append(seeds, removedForms...) {
		f.Add(s)
	}
	f.Fuzz(checkPrepared)
}
