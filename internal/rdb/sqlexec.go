package rdb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmldm"
)

// Result is the outcome of executing a statement. For SELECT, Columns
// names the output columns and Rows holds the data, output column i of a
// row at Pos(i) and its export text at Text. The rows of a View answer
// and of SELECT * are the table's own: a reader neither writes nor
// appends to them.
type Result struct {
	Columns []string
	Rows    []Row
	Stats   ExecStats
	// pos maps output column i to its position in a row, when the rows
	// are the table's own (View); nil is the identity.
	pos []int
	// stored says the rows are the table's own, each followed by its
	// cells' export text (Table.rows): a View answer, and Exec's SELECT *.
	stored bool
}

// Pos is the position of output column i (Columns[i]) in a row of Rows:
// i itself, except in a View answer of a select list of columns, whose
// rows keep the table's layout.
func (r *Result) Pos(i int) int {
	if r.pos == nil {
		return i
	}
	return r.pos[i]
}

// Text is the export text of output column i of row, a row of Rows: a
// String cell itself, any other kind its Stringify text as a boxed
// String, and nil for NULL, whose rule is the reader's. A table's row
// shares the box its INSERT made, so reading it allocates nothing; a
// projected or hand-built row's text is made on each call.
func (r *Result) Text(row Row, i int) Value {
	p := r.Pos(i)
	if r.stored {
		return row[len(row) : 2*len(row)][p]
	}
	return exportText(row[p])
}

// ExecStats reports work done by the executor; the integration
// optimizer's cost model and experiment E5 read these.
type ExecStats struct {
	RowsScanned int  // base-table rows touched
	IndexUsed   bool // an index restricted the scan
}

// Exec parses and executes one SQL statement. A SELECT whose shape —
// the text with its numbers, strings and select-list aliases lifted out
// — it has executed before is not parsed again: the statement parsed
// then is bound to this text's values (PreparedStats).
func (db *Database) Exec(sql string) (*Result, error) {
	stmt, err := db.stmts.parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// View is Exec for a reader that reads each output column through
// Result.Pos and writes nothing. A SELECT whose select list is * or only
// columns answers the table's own rows, not copies of them, and an
// unfiltered scan answers the table's row list itself, capped at its
// length; the table's row-store invariant (Table.rows) keeps both as
// they were answered. A SELECT with any other item, and every other
// statement, answers as Exec does.
func (db *Database) View(sql string) (*Result, error) {
	stmt, err := db.stmts.parse(sql)
	if err != nil {
		return nil, err
	}
	if st, ok := stmt.(*SelectStmt); ok {
		return db.execSelect(st, true)
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
		return db.execSelect(st, false)
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
	return evalSQL(e, nil, nil)
}

// colKey identifies one column of an intermediate row set.
type colKey struct {
	qual string // table alias, lower-case
	name string // column name, lower-case
}

// rowSet is an intermediate table during SELECT evaluation.
type rowSet struct {
	cols []colKey
	rows []Row
}

// lookup is the position of the column name, qualified by qual unless
// qual is empty. The columns are one table's, whose names are distinct.
func (rs *rowSet) lookup(qual, name string) (int, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	for i, c := range rs.cols {
		if c.name == name && (qual == "" || c.qual == qual) {
			return i, nil
		}
	}
	if qual != "" {
		return 0, fmt.Errorf("rdb: unknown column %s.%s", qual, name)
	}
	return 0, fmt.Errorf("rdb: unknown column %q", name)
}

// resolve returns e with every column reference rs resolves replaced by
// its position, so that evaluating it over rs's rows indexes each row
// instead of looking the name up in it. A reference rs does not resolve
// stays, and fails when a row is evaluated, as it always did. Execution
// resolves each expression once, against the row set it runs over.
func (rs *rowSet) resolve(e SQLExpr) SQLExpr {
	return mapSQL(e, func(_, cur SQLExpr) SQLExpr {
		if c, ok := cur.(*ColRef); ok {
			if i, err := rs.lookup(c.Table, c.Col); err == nil {
				return &colAt{i}
			}
		}
		return cur
	})
}

// execSelect runs a SELECT; with view set, it answers as View does.
func (db *Database) execSelect(st *SelectStmt, view bool) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	res := &Result{}

	// The table's rows FROM reads, and the part of WHERE no index has
	// answered, resolved against its columns.
	src, err := db.buildFrom(st, &res.Stats)
	if err != nil {
		return nil, err
	}
	where := src.resolve(src.where)
	view = view && src.columnMap(st, res)
	// Every answer but a projection shares the table's rows.
	res.stored = view || st.Star
	if len(st.OrderBy) == 0 {
		if !view {
			// Nothing needs the rows that pass WHERE together: each is
			// projected as it is read.
			return project(st, src, where, res)
		}
		if where == nil && !src.indexed {
			// Every row is read and passes: the answer is the table's
			// row list as it stands, capped so that an INSERT appends
			// past it.
			n := len(src.table.rows)
			res.Stats.RowsScanned = n
			res.Rows = src.table.rows[:n:n]
			return res, nil
		}
		if res.Rows, err = src.passing(where); err != nil {
			return nil, err
		}
		return res, nil
	}
	// Order the rows that passed (so keys may reference any column of the
	// table), then project them.
	rs, err := src.filter(where)
	if err != nil {
		return nil, err
	}
	if err := orderRows(st.OrderBy, rs, st.Items); err != nil {
		return nil, err
	}
	if view {
		res.Rows = rs.rows
		return res, nil
	}
	return project(st, &rowSource{rowSet: *rs}, nil, res)
}

// columnMap names st's output columns in res and maps each to its
// position in s's rows (Result.Pos), when the select list is * (the
// identity) or only columns of s, and reports whether it did. Any other
// item must be evaluated into a new row: columnMap leaves res as it is.
func (s *rowSource) columnMap(st *SelectStmt, res *Result) bool {
	if st.Star {
		for _, c := range s.cols {
			res.Columns = append(res.Columns, c.name)
		}
		return true
	}
	pos := make([]int, len(st.Items))
	for i, item := range st.Items {
		c, ok := item.Expr.(*ColRef)
		if !ok {
			return false
		}
		ci, err := s.lookup(c.Table, c.Col)
		if err != nil {
			return false
		}
		pos[i] = ci
	}
	res.Columns = make([]string, len(st.Items))
	for i, item := range st.Items {
		res.Columns[i] = itemName(item, i)
	}
	res.pos = pos
	return true
}

// firstChunk is how many projected rows project makes room for before it
// knows how many pass a WHERE that is still to be checked.
const firstChunk = 64

// project evaluates the select list over the rows of src that pass
// where, in src's order. A SELECT * answer shares the table's rows. The
// row list has room for every row src visits (a slice header each).
// Projected rows are carved from slabs, each row capped at its own
// length so that an append to one cannot reach the next: one slab for
// all of them when where is nil, since src then says how many there are,
// else a first chunk and then chunks as large as what is held, none
// copied — a WHERE that drops most rows of a large table does not
// allocate their values.
func project(st *SelectStmt, src *rowSource, where SQLExpr, res *Result) (*Result, error) {
	outRows := make([]Row, 0, src.size())
	hint := src.size()
	if where != nil {
		hint = min(hint, firstChunk)
	}
	var err error
	if st.Star {
		for _, c := range src.cols {
			res.Columns = append(res.Columns, c.name)
		}
		err = src.each(where, func(row Row) error {
			outRows = append(outRows, row)
			return nil
		})
	} else {
		// An item that is a column of the row set copies the row's value
		// at pos, without the node resolve would allocate for it; any
		// other item evaluates its resolved expr.
		type projection struct {
			pos  int
			expr SQLExpr
		}
		proj := make([]projection, len(st.Items))
		for i, item := range st.Items {
			res.Columns = append(res.Columns, itemName(item, i))
			proj[i] = projection{pos: -1, expr: item.Expr}
			if c, ok := item.Expr.(*ColRef); ok {
				if ci, err := src.lookup(c.Table, c.Col); err == nil {
					proj[i].pos = ci
					continue
				}
			}
			proj[i].expr = src.resolve(item.Expr)
		}
		n := len(st.Items)
		var slab []Value
		err = src.each(where, func(row Row) error {
			if len(slab) < n {
				slab = make([]Value, max(hint, len(outRows), 1)*n)
			}
			out := Row(slab[:n:n])
			slab = slab[n:]
			for i, p := range proj {
				if p.pos >= 0 {
					out[i] = row[p.pos]
					continue
				}
				v, err := evalSQL(p.expr, &src.rowSet, row)
				if err != nil {
					return err
				}
				out[i] = v
			}
			outRows = append(outRows, out)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	res.Rows = outRows
	return res, nil
}

func itemName(item SelectItem, i int) string {
	if item.Alias != "" {
		return strings.ToLower(item.Alias)
	}
	if cr, ok := item.Expr.(*ColRef); ok {
		return strings.ToLower(cr.Col)
	}
	return fmt.Sprintf("col%d", i+1)
}

// rowSource is what a SELECT reads: its table's columns and, read in
// place, every row of the table or the row ids an index served
// (indexed); or, with no table, the rows of a materialized row set, as
// ORDER BY leaves them. where is the part of WHERE those rows have still
// to pass.
type rowSource struct {
	rowSet
	table   *Table
	indexed bool
	rids    []int
	where   SQLExpr
	stats   *ExecStats
}

// size is the number of rows each visits before WHERE.
func (s *rowSource) size() int {
	switch {
	case s.table == nil:
		return len(s.rows)
	case s.indexed:
		return len(s.rids)
	default:
		return len(s.table.rows)
	}
}

// each calls fn on every row of s that passes where (resolved against
// s), in order, and stops at the first error. A table's rows are counted
// as scanned as they are read.
func (s *rowSource) each(where SQLExpr, fn func(Row) error) error {
	visit := func(row Row) error {
		if where != nil {
			v, err := evalSQL(where, &s.rowSet, row)
			if err != nil {
				return err
			}
			if !xmldm.Truthy(v) {
				return nil
			}
		}
		return fn(row)
	}
	t := s.table
	switch {
	case t == nil:
		for _, row := range s.rows {
			if err := visit(row); err != nil {
				return err
			}
		}
	case s.indexed:
		for _, rid := range s.rids {
			s.stats.RowsScanned++
			if err := visit(t.rows[rid]); err != nil {
				return err
			}
		}
	default:
		for _, row := range t.rows {
			s.stats.RowsScanned++
			if err := visit(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// passing is a new list of s's rows that pass where, with room for every
// row s visits.
func (s *rowSource) passing(where SQLExpr) ([]Row, error) {
	rows := make([]Row, 0, s.size())
	err := s.each(where, func(row Row) error {
		rows = append(rows, row)
		return nil
	})
	return rows, err
}

// filter is a new row set of s's rows that pass where.
func (s *rowSource) filter(where SQLExpr) (*rowSet, error) {
	rows, err := s.passing(where)
	if err != nil {
		return nil, err
	}
	return &rowSet{cols: s.cols, rows: rows}, nil
}

// buildFrom returns what a SELECT reads: its table, read in place,
// through an index when WHERE has a usable conjunct. The WHERE it returns
// with is all of it except a conjunct the index has answered exactly.
func (db *Database) buildFrom(st *SelectStmt, stats *ExecStats) (*rowSource, error) {
	t, ok := db.tables[strings.ToLower(st.From.Table)]
	if !ok {
		return nil, fmt.Errorf("rdb: %w: %q", ErrNoTable, st.From.Table)
	}
	qual := strings.ToLower(st.From.Ref())
	cols := make([]colKey, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		cols[i] = colKey{qual: qual, name: strings.ToLower(c.Name)}
	}
	src := &rowSource{rowSet: rowSet{cols: cols}, table: t, where: st.Where, stats: stats}
	if st.Where != nil {
		if f := chooseIndexFilter(st.Where, t, qual); f != nil {
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
	// says the index answers it exactly — an IN list, or = on a literal
	// that is not NULL — and rest is then the other conjuncts of WHERE
	// (nil when there are none). Both test with Equal, which is what the
	// index looks up by, so the rows it returns need not be checked again:
	// for IN a check that costs rows × list length. A range is checked
	// again, since the ordered keys hold NULLs below every number.
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
// then a range; among equals the first in text order.
func chooseIndexFilter(where SQLExpr, t *Table, ref string) *indexFilter {
	const (
		rankUniqueEq = iota
		rankEq
		rankIn
		rankRange
		unranked
	)
	ref = strings.ToLower(ref)
	var best indexFilter
	bestRank := unranked
	offer := func(rank int, f indexFilter) {
		if rank < bestRank {
			best, bestRank = f, rank
		}
	}
	conjuncts := splitConjuncts(where)
	for i, c := range conjuncts {
		switch x := c.(type) {
		case *SQLIn:
			if col, lits, ok := colInLiterals(x, ref); ok && t.indexes[col] != nil && bestRank > rankIn {
				offer(rankIn, indexFilter{column: col, in: lits, conj: i, exact: true})
			}
		case *SQLBin:
			col, lit, op, ok := colLitComparison(x, ref)
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
				// = NULL holds for no row, and the index finds the NULLs.
				exact := lit != nil && lit.Kind() != xmldm.KindNull
				offer(rank, indexFilter{column: col, eq: lit, conj: i, exact: exact})
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

// colInLiterals matches col IN (lit, …) with col belonging to the given
// table reference and every list element a literal.
func colInLiterals(in *SQLIn, ref string) (col string, lits []Value, ok bool) {
	cr, isCol := in.E.(*ColRef)
	if !isCol || (cr.Table != "" && !strings.EqualFold(cr.Table, ref)) {
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
// operator), with col belonging to the given table reference.
func colLitComparison(bin *SQLBin, ref string) (col string, lit Value, op string, ok bool) {
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
	if _, valid := flip[bin.Op]; !valid {
		return "", nil, "", false
	}
	if cr, isCol := bin.L.(*ColRef); isCol {
		if l, isLit := bin.R.(*SQLLit); isLit {
			if cr.Table == "" || strings.EqualFold(cr.Table, ref) {
				return strings.ToLower(cr.Col), l.Value, bin.Op, true
			}
		}
	}
	if cr, isCol := bin.R.(*ColRef); isCol {
		if l, isLit := bin.L.(*SQLLit); isLit {
			if cr.Table == "" || strings.EqualFold(cr.Table, ref) {
				return strings.ToLower(cr.Col), l.Value, flip[bin.Op], true
			}
		}
	}
	return "", nil, "", false
}

// orderRows sorts rs in place by the ORDER BY keys. Keys may reference
// select-list aliases (resolved through items) or input columns.
func orderRows(keys []SQLOrderItem, rs *rowSet, items []SelectItem) error {
	if len(keys) == 0 {
		return nil
	}
	resolve := func(e SQLExpr) SQLExpr {
		cr, ok := e.(*ColRef)
		if !ok || cr.Table != "" {
			return e
		}
		for _, item := range items {
			if strings.EqualFold(item.Alias, cr.Col) {
				return item.Expr
			}
		}
		return e
	}
	exprs := make([]SQLExpr, len(keys))
	for i, k := range keys {
		exprs[i] = rs.resolve(resolve(k.Expr))
	}
	var sortErr error
	sort.SliceStable(rs.rows, func(i, j int) bool {
		for ki, e := range exprs {
			vi, err := evalSQL(e, rs, rs.rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := evalSQL(e, rs, rs.rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c := xmldm.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
