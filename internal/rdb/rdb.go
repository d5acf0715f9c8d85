// Package rdb is an embedded relational database engine: typed tables,
// hash and ordered indexes, and exactly the SQL the integration compiler
// generates (a single-table SELECT of columns with WHERE and ORDER BY,
// sqlparse.go) plus CREATE TABLE, CREATE INDEX and INSERT to load the
// data. A SELECT answers the table's own rows, read through a column map
// (Result.Pos). Tables are append-only: a table is created once and rows
// are only appended.
//
// In the paper's deployment the relational sources are customers'
// production DBMSs; here rdb plays that role so that the compiler's
// "translate each fragment into the appropriate query language for the
// destination source" (§2.1) path is exercised against a real SQL
// consumer, including its use of indexes.
//
// Deviation from standard SQL: values compare with the data model's
// weak typing (xmldm.Compare), so VARCHAR values that parse as numbers
// order numerically ('9' < '10'). Inside the integration system this is
// exactly right — the mediator joins text from one source against
// numbers from another — but it differs from a vanilla DBMS. So does
// NULL: a SELECT reads a cell as the mediator binds it (cellValue), and
// a NULL cell as the empty text it exports as, the empty string.
package rdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/xmldm"
)

// Value is a cell value: one of the xmldm atom kinds.
type Value = xmldm.Value

// ColType enumerates column types.
type ColType int

// The supported column types.
const (
	TInt ColType = iota
	TFloat
	TString
	TBool
	TDate
)

// String returns the SQL spelling of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOL"
	case TDate:
		return "DATE"
	default:
		return "?"
	}
}

func parseColType(s string) (ColType, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return TFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "CLOB":
		return TString, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	case "DATE", "TIMESTAMP", "DATETIME":
		return TDate, nil
	default:
		return 0, fmt.Errorf("rdb: unknown column type %q", s)
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table's columns; PrimaryKey is the index into
// Columns of the primary-key column, or -1.
type Schema struct {
	Columns    []Column
	PrimaryKey int
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one table row; len(Row) == len(Schema.Columns).
type Row []Value

// Table is an in-memory relational table with optional indexes.
type Table struct {
	Name   string
	Schema Schema
	// rows is the row list; a row's id is its index. A row of n cells is
	// the first half of the 2n cells newRow made for it, and the second
	// half holds each cell's export text, boxed once (Result.Text): so a
	// row is never appended to, since its capacity runs on into its
	// boxes. A SELECT's answer shares its rows, or the list itself up to
	// its length when nothing filters, and is read after the lock is
	// released. So rows, their boxes and the listed prefix are never
	// written: INSERT appends, past every length an answer was given, and
	// nothing else writes the list.
	rows    []Row
	indexes map[string]*Index // by column name (lower-case)
}

// Database is a named collection of tables. All methods are safe for
// concurrent use.
type Database struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*Table
	stmts  stmtCache // Exec's parsed SELECTs; locks itself
}

// ErrNoTable is wrapped by errors for references to unknown tables.
var ErrNoTable = errors.New("no such table")

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{name: name, tables: make(map[string]*Table)}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// CreateTable creates a table; it fails if the name is taken.
func (db *Database) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("rdb: table %q already exists", name)
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("rdb: table %q must have at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("rdb: duplicate column %q in table %q", c.Name, name)
		}
		seen[lc] = true
	}
	t := &Table{Name: name, Schema: schema, indexes: make(map[string]*Index)}
	if schema.PrimaryKey >= 0 {
		pk := schema.Columns[schema.PrimaryKey].Name
		t.indexes[strings.ToLower(pk)] = newIndex(pk, schema.PrimaryKey, true)
	}
	db.tables[key] = t
	return t, nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("rdb: %w: %q", ErrNoTable, name)
	}
	return t, nil
}

// TableNames returns the table names in sorted order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var names []string
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds an index on the named column. unique enforces
// uniqueness on future inserts.
func (db *Database) CreateIndex(table, column string, unique bool) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("rdb: no column %q in table %q", column, table)
	}
	key := strings.ToLower(column)
	if _, ok := t.indexes[key]; ok {
		return nil // idempotent
	}
	idx := newIndex(t.Schema.Columns[ci].Name, ci, unique)
	for rid, row := range t.rows {
		if err := idx.check(row); err != nil {
			return fmt.Errorf("rdb: building index on %s.%s: %w", table, column, err)
		}
		idx.add(row, rid)
	}
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether the table has an index on the column; the
// integration optimizer uses this to cost source-side plans.
func (db *Database) HasIndex(table, column string) bool {
	t, err := db.Table(table)
	if err != nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(column)]
	return ok
}

// Insert appends a row, coercing values to column types and maintaining
// indexes. It fails on arity mismatch, uncoercible values, or unique-key
// violations.
func (db *Database) Insert(table string, vals Row) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	row, err := t.newRow(vals)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return t.appendRows([]Row{row})
}

// newRow is vals coerced to the column types, followed in its backing
// array by each cell's export text (Table.rows). It is the only maker of
// a stored row. A table's schema never changes, so the caller need not
// hold the lock.
func (t *Table) newRow(vals Row) (Row, error) {
	n := len(t.Schema.Columns)
	if len(vals) != n {
		return nil, fmt.Errorf("rdb: insert into %q: %d values for %d columns", t.Name, len(vals), n)
	}
	cells := make(Row, 2*n)
	row, texts := cells[:n], cells[n:]
	for i, v := range vals {
		cv, err := coerce(v, t.Schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("rdb: insert into %q column %q: %w", t.Name, t.Schema.Columns[i].Name, err)
		}
		row[i], texts[i] = cv, exportText(cv)
	}
	return row, nil
}

// exportText is the export text of a cell, boxed: a String cell is its own
// box, any other kind its Stringify text, and NULL (or nil) has none —
// nil, since each reader has its own rule for NULL.
func exportText(v Value) Value {
	switch v.(type) {
	case nil, xmldm.Null:
		return nil
	case xmldm.String:
		return v
	default:
		return xmldm.String(xmldm.Stringify(v))
	}
}

// cellValue is the value a SELECT reads from column i of a stored row —
// in WHERE, through an index and in ORDER BY — which is what the mediator
// binds the cell to, so that a pushed predicate or ORDER BY answers as it
// would there: the cell's export text (Table.rows), and "" for NULL,
// which exports as an empty element. An INT cell reads as its Int, which
// compares, hashes, computes and matches as its text does, without
// parsing it; it is returned as stored, since boxing it again would
// allocate.
func cellValue(row Row, i int) Value {
	if _, ok := row[i].(xmldm.Int); ok {
		return row[i]
	}
	if text := row[len(row) : 2*len(row)][i]; text != nil {
		return text
	}
	return xmldm.String("")
}

// appendRows appends rows and indexes them, all or none: a key that a
// unique index holds, or that an earlier row of rows has, fails them all
// before any is appended. Callers hold the write lock.
func (t *Table) appendRows(rows []Row) error {
	for _, idx := range t.indexes {
		var earlier *Index // the keys of rows before this one
		if idx.unique && len(rows) > 1 {
			earlier = newIndex(idx.column, idx.pos, true)
		}
		for _, row := range rows {
			err := idx.check(row)
			if err == nil && earlier != nil {
				err = earlier.check(row)
				earlier.add(row, 0)
			}
			if err != nil {
				return fmt.Errorf("rdb: insert into %q: %w", t.Name, err)
			}
		}
	}
	for _, row := range rows {
		rid := len(t.rows)
		t.rows = append(t.rows, row)
		for _, idx := range t.indexes {
			idx.add(row, rid)
		}
	}
	return nil
}

// RowCount returns the number of rows; the optimizer's statistics hook.
func (db *Database) RowCount(table string) int {
	t, err := db.Table(table)
	if err != nil {
		return 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(t.rows)
}

// coerce converts v to the column type; Null passes through.
func coerce(v Value, ct ColType) (Value, error) {
	if v == nil {
		return xmldm.Null{}, nil
	}
	if v.Kind() == xmldm.KindNull {
		return v, nil
	}
	switch ct {
	case TInt:
		if i, ok := xmldm.ToInt(v); ok {
			return xmldm.Int(i), nil
		}
	case TFloat:
		if f, ok := xmldm.ToFloat(v); ok {
			return xmldm.Float(f), nil
		}
	case TString:
		return xmldm.String(xmldm.Stringify(v)), nil
	case TBool:
		switch x := v.(type) {
		case xmldm.Bool:
			return x, nil
		case xmldm.String:
			switch strings.ToLower(string(x)) {
			case "true", "t", "1", "yes":
				return xmldm.Bool(true), nil
			case "false", "f", "0", "no":
				return xmldm.Bool(false), nil
			}
		case xmldm.Int:
			return xmldm.Bool(x != 0), nil
		}
	case TDate:
		if d, ok := v.(xmldm.Date); ok {
			return d, nil
		}
		if s, ok := v.(xmldm.String); ok {
			if d, err := parseDate(string(s)); err == nil {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("cannot coerce %s %q to %s", v.Kind(), v.String(), ct)
}
