package rdb

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/xmldm"
)

// Result is the outcome of executing a statement. For SELECT, Columns
// names the output columns and Rows holds the table's own rows that
// answer, output column i of a row at Pos(i) and its export text at
// Text; an unfiltered scan answers the table's row list itself, capped at
// its length. The table's row-store invariant (Table.rows) keeps both as
// they were answered, so a reader neither writes nor appends to them.
type Result struct {
	Columns []string
	Rows    []Row
	Stats   ExecStats
	// pos maps output column i to its position in a row; nil (SELECT *)
	// is the identity.
	pos []int
}

// Pos is the position of output column i (Columns[i]) in a row of Rows:
// i itself for SELECT *, else the position of the column the select
// list names.
func (r *Result) Pos(i int) int {
	if r.pos == nil {
		return i
	}
	return r.pos[i]
}

// Text is the export text of output column i of row, a row of Rows: the
// box its INSERT stored (Table.rows) — a String cell itself, any other
// kind its Stringify text as a boxed String, and nil for NULL, whose rule
// is the reader's. Reading it allocates nothing.
func (r *Result) Text(row Row, i int) Value {
	return row[len(row) : 2*len(row)][r.Pos(i)]
}

// ExecStats reports work done by the executor; the integration
// optimizer's cost model and experiment E5 read these.
type ExecStats struct {
	RowsScanned int  // base-table rows touched
	IndexUsed   bool // an index restricted the scan
}

// Exec parses and executes one SQL statement. A SELECT whose shape —
// the text with its numbers and strings lifted out — it has executed
// before is not parsed again: the statement parsed then is bound to
// this text's values (PreparedStats).
func (db *Database) Exec(sql string) (*Result, error) {
	stmt, err := db.stmts.parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// MustExec executes a statement and panics on error; for test fixtures.
func (db *Database) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("rdb: %v\n%s", err, sql))
	}
	return r
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTableStmt:
		_, err := db.CreateTable(st.Name, st.Schema)
		return &Result{}, err
	case *CreateIndexStmt:
		return &Result{}, db.CreateIndex(st.Table, st.Column, st.Unique)
	case *InsertStmt:
		return db.execInsert(st)
	case *SelectStmt:
		return db.execSelect(st)
	default:
		return nil, fmt.Errorf("rdb: unsupported statement %T", stmt)
	}
}

// execInsert appends the statement's rows all or none: every row is
// evaluated and coerced first, then checked and appended under one lock.
func (db *Database) execInsert(st *InsertStmt) (*Result, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(st.Rows))
	for r, exprRow := range st.Rows {
		vals := make(Row, len(t.Schema.Columns))
		for i := range vals {
			vals[i] = xmldm.Null{}
		}
		if len(st.Columns) > 0 {
			if len(exprRow) != len(st.Columns) {
				return nil, fmt.Errorf("rdb: insert arity mismatch")
			}
			for i, col := range st.Columns {
				ci := t.Schema.ColIndex(col)
				if ci < 0 {
					return nil, fmt.Errorf("rdb: no column %q in %q", col, st.Table)
				}
				v, err := evalConst(exprRow[i])
				if err != nil {
					return nil, err
				}
				vals[ci] = v
			}
		} else {
			if len(exprRow) != len(t.Schema.Columns) {
				return nil, fmt.Errorf("rdb: insert arity mismatch")
			}
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
		}
		if rows[r], err = t.newRow(vals); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Result{}, t.appendRows(rows)
}

// evalConst evaluates an expression with no row context (INSERT values).
func evalConst(e SQLExpr) (Value, error) {
	return evalSQL(e, nil)
}

// execSelect runs a SELECT. Its answer is the table's rows that pass
// WHERE, sorted when ORDER BY asks, each read through the column map
// (Result.Pos).
func (db *Database) execSelect(st *SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	res := &Result{}

	// The table's rows FROM reads, and the part of WHERE no index has
	// answered, resolved against its columns.
	src, err := db.buildFrom(st, &res.Stats)
	if err != nil {
		return nil, err
	}
	where, err := src.resolve(src.where)
	if err != nil {
		return nil, err
	}
	if err := src.columnMap(st, res); err != nil {
		return nil, err
	}
	if len(st.OrderBy) == 0 && where == nil && !src.indexed {
		// Every row is read and passes: the answer is the table's row
		// list as it stands, capped so that an INSERT appends past it.
		n := len(src.table.rows)
		res.Stats.RowsScanned = n
		res.Rows = src.table.rows[:n:n]
		return res, nil
	}
	if len(st.OrderBy) > 0 && src.indexed {
		// The sort is stable, so rows with equal keys stay in the order
		// they are read: read them in table order, as the mediator's sort
		// of the whole table keeps them, not in an index range's key order.
		slices.Sort(src.rids)
	}
	if res.Rows, err = src.passing(where); err != nil {
		return nil, err
	}
	if err := src.orderRows(st.OrderBy, res.Rows); err != nil {
		return nil, err
	}
	return res, nil
}

// columnMap names st's output columns in res and maps each to its
// position in the table's rows (Result.Pos): the identity for *.
func (s *rowSource) columnMap(st *SelectStmt, res *Result) error {
	cols := s.table.Schema.Columns
	if st.Star {
		res.Columns = make([]string, len(cols))
		for i, c := range cols {
			res.Columns[i] = strings.ToLower(c.Name)
		}
		return nil
	}
	res.Columns = make([]string, len(st.Items))
	res.pos = make([]int, len(st.Items))
	for i, col := range st.Items {
		ci, err := s.lookup(col)
		if err != nil {
			return err
		}
		res.pos[i] = ci
		res.Columns[i] = strings.ToLower(col)
	}
	return nil
}

// rowSource is what a SELECT reads, in place: every row of its table, or
// the row ids an index served (indexed). where is the part of WHERE those
// rows have still to pass.
type rowSource struct {
	table   *Table
	indexed bool
	rids    []int
	where   SQLExpr
	stats   *ExecStats
}

// lookup is the position of the named column in the table's rows.
func (s *rowSource) lookup(name string) (int, error) {
	if i := s.table.Schema.ColIndex(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("rdb: unknown column %q", strings.ToLower(name))
}

// resolve returns e with every column reference replaced by its position
// (colAt), so that evaluating it indexes each row instead of looking the
// name up; or, as an error, the first reference to a column the table
// lacks or call of an unknown function, whatever rows there are.
// Execution resolves each expression once.
func (s *rowSource) resolve(e SQLExpr) (SQLExpr, error) {
	var err error
	out := mapSQL(e, func(_, cur SQLExpr) SQLExpr {
		if err != nil {
			return cur
		}
		switch x := cur.(type) {
		case *ColRef:
			var i int
			if i, err = s.lookup(x.Col); err == nil {
				return &colAt{i}
			}
		case *SQLFunc:
			err = checkSQLFunc(x.Name, len(x.Args))
		}
		return cur
	})
	return out, err
}

// passing is a new list of s's rows that pass where (resolved), in
// order, with room for every row s visits. A row is counted as scanned
// as it is read.
func (s *rowSource) passing(where SQLExpr) ([]Row, error) {
	t := s.table
	n := len(t.rows)
	if s.indexed {
		n = len(s.rids)
	}
	rows := make([]Row, 0, n)
	for k := 0; k < n; k++ {
		rid := k
		if s.indexed {
			rid = s.rids[k]
		}
		row := t.rows[rid]
		s.stats.RowsScanned++
		if where != nil {
			v, err := evalSQL(where, row)
			if err != nil {
				return nil, err
			}
			if !xmldm.Truthy(v) {
				continue
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// buildFrom returns what a SELECT reads: its table, read in place,
// through an index when WHERE has a usable conjunct. The WHERE it returns
// with is all of it except a conjunct the index has answered exactly.
func (db *Database) buildFrom(st *SelectStmt, stats *ExecStats) (*rowSource, error) {
	t, ok := db.tables[strings.ToLower(st.From)]
	if !ok {
		return nil, fmt.Errorf("rdb: %w: %q", ErrNoTable, st.From)
	}
	src := &rowSource{table: t, where: st.Where, stats: stats}
	if st.Where != nil {
		if f := chooseIndexFilter(st.Where, t); f != nil {
			src.indexed, src.rids = true, f.lookup(t.indexes[f.column])
			stats.IndexUsed = true
			if f.exact {
				src.where = f.rest
			}
		}
	}
	return src, nil
}

type indexFilter struct {
	column       string  // lower-case
	eq           Value   // col = lit
	in           []Value // col IN (lit, …); non-nil even when the list is empty
	lo, hi       Value
	loInc, hiInc bool
	// conj is the position of the conjunct the filter comes from. exact
	// says the index answers it exactly — an IN list or an = — and rest is
	// then the other conjuncts of WHERE (nil when there are none). Both
	// test with Equal on the cells as WHERE reads them, which is what the
	// index looks up by, so the rows it returns need not be checked again:
	// for IN a check that costs rows × list length. (= NULL holds for no
	// row, and the index, which reads a NULL cell as '', finds none.) A
	// range is checked again: the index would answer < NULL with every
	// row.
	conj  int
	exact bool
	rest  SQLExpr
}

// lookup is the row ids idx holds for f, in the order it keeps them.
func (f *indexFilter) lookup(idx *Index) []int {
	switch {
	case f.eq != nil:
		return idx.lookupEq(f.eq)
	case f.in != nil:
		return idx.lookupIn(f.in)
	default:
		return idx.lookupRange(f.lo, f.hi, f.loInc, f.hiInc)
	}
}

// chooseIndexFilter inspects the top-level AND conjuncts of where for a
// comparison between an indexed column of t and literals, and returns
// the most selective kind present: = on a unique index, then =, then IN,
// then a range; among equals the first in text order. It looks no
// further than the first conjunct that can fail: a scan evaluates the
// conjuncts left to right on every row, so an error there is its answer
// even on a row a later conjunct rules out, and the index must not skip
// that row.
func chooseIndexFilter(where SQLExpr, t *Table) *indexFilter {
	const (
		rankUniqueEq = iota
		rankEq
		rankIn
		rankRange
		unranked
	)
	var best indexFilter
	bestRank := unranked
	offer := func(rank int, f indexFilter) {
		if rank < bestRank {
			best, bestRank = f, rank
		}
	}
	conjuncts := splitConjuncts(where)
	for i, c := range conjuncts {
		if i > 0 && canFail(conjuncts[i-1]) {
			break
		}
		switch x := c.(type) {
		case *SQLIn:
			if col, lits, ok := colInLiterals(x); ok && t.indexes[col] != nil && bestRank > rankIn {
				offer(rankIn, indexFilter{column: col, in: lits, conj: i, exact: true})
			}
		case *SQLBin:
			col, lit, op, ok := colLitComparison(x)
			if !ok {
				continue
			}
			idx := t.indexes[col]
			if idx == nil {
				continue
			}
			switch op {
			case "=":
				rank := rankEq
				if idx.unique {
					rank = rankUniqueEq
				}
				offer(rank, indexFilter{column: col, eq: lit, conj: i, exact: true})
			case "<":
				offer(rankRange, indexFilter{column: col, hi: lit})
			case "<=":
				offer(rankRange, indexFilter{column: col, hi: lit, hiInc: true})
			case ">":
				offer(rankRange, indexFilter{column: col, lo: lit})
			case ">=":
				offer(rankRange, indexFilter{column: col, lo: lit, loInc: true})
			}
		}
	}
	if bestRank == unranked {
		return nil
	}
	if best.exact {
		best.rest = joinConjuncts(conjuncts, best.conj)
	}
	return &best
}

// canFail reports whether evaluating e may fail on some row: only
// arithmetic can, on a non-number or dividing by zero.
func canFail(e SQLExpr) bool {
	fails := false
	mapSQL(e, func(_, cur SQLExpr) SQLExpr {
		if b, ok := cur.(*SQLBin); ok && (b.Op == "+" || b.Op == "-" || b.Op == "*" || b.Op == "/") {
			fails = true
		}
		return cur
	})
	return fails
}

// colInLiterals matches col IN (lit, …) with every list element a
// literal.
func colInLiterals(in *SQLIn) (col string, lits []Value, ok bool) {
	cr, isCol := in.E.(*ColRef)
	if !isCol {
		return "", nil, false
	}
	lits = make([]Value, 0, len(in.List))
	for _, e := range in.List {
		l, isLit := e.(*SQLLit)
		if !isLit {
			return "", nil, false
		}
		lits = append(lits, l.Value)
	}
	return strings.ToLower(cr.Col), lits, true
}

// joinConjuncts is the AND of all conjuncts but the skip-th, nil if that
// leaves none.
func joinConjuncts(conjuncts []SQLExpr, skip int) SQLExpr {
	var out SQLExpr
	for i, c := range conjuncts {
		switch {
		case i == skip:
		case out == nil:
			out = c
		default:
			out = &SQLBin{Op: "AND", L: out, R: c}
		}
	}
	return out
}

func splitConjuncts(e SQLExpr) []SQLExpr {
	if bin, ok := e.(*SQLBin); ok && bin.Op == "AND" {
		return append(splitConjuncts(bin.L), splitConjuncts(bin.R)...)
	}
	return []SQLExpr{e}
}

// colLitComparison matches col op lit or lit op col (flipping the
// operator).
func colLitComparison(bin *SQLBin) (col string, lit Value, op string, ok bool) {
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
	if _, valid := flip[bin.Op]; !valid {
		return "", nil, "", false
	}
	if cr, isCol := bin.L.(*ColRef); isCol {
		if l, isLit := bin.R.(*SQLLit); isLit {
			return strings.ToLower(cr.Col), l.Value, bin.Op, true
		}
	}
	if cr, isCol := bin.R.(*ColRef); isCol {
		if l, isLit := bin.L.(*SQLLit); isLit {
			return strings.ToLower(cr.Col), l.Value, flip[bin.Op], true
		}
	}
	return "", nil, "", false
}

// orderRows sorts rows, stably, by the ORDER BY columns, each cell read
// as WHERE reads it (cellValue).
func (s *rowSource) orderRows(keys []SQLOrderItem, rows []Row) error {
	if len(keys) == 0 {
		return nil
	}
	pos := make([]int, len(keys))
	for i, k := range keys {
		var err error
		if pos[i], err = s.lookup(k.Col); err != nil {
			return err
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, p := range pos {
			if c := xmldm.Compare(cellValue(rows[i], p), cellValue(rows[j], p)); c != 0 {
				return (c < 0) != keys[k].Desc
			}
		}
		return false
	})
	return nil
}
