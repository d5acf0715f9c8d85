package rdb

import "testing"

// FuzzParseSQL is the native fuzz target for the SQL parser: it must not
// panic, and Exec's cached path must parse what it parses (checkPrepared).
// Run with:
//
//	go test -fuzz=FuzzParseSQL ./internal/rdb
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		`SELECT a, b, a FROM t WHERE upper(a) LIKE 'x%' AND NOT b = NULL ORDER BY a DESC, b`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, 'O''Brien')`,
		`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(64))`,
		`UPDATE t SET a = a + 1 WHERE b IS NOT NULL`,
		`DELETE FROM t WHERE a IN (1, 2) OR NOT b LIKE '_'`,
		`SELECT 'unterminated`,
		`SELECT city, id FROM customers WHERE (tier = 'O''Neil') AND (-3 < id) AND NOT name LIKE '%x' AND NOT id IN (1.5, 2) AND (length(trim(name)) / 2 >= 0.00001)`,
	}
	for _, s := range append(seeds, removedForms...) {
		f.Add(s)
	}
	f.Fuzz(checkPrepared)
}
