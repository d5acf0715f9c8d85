package rdb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmldm"
)

// Result is the outcome of executing a statement. For SELECT, Columns
// names the output columns and Rows holds the data; for DML, Affected
// reports the touched row count.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
	Stats    ExecStats
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
	case *DropTableStmt:
		return &Result{}, db.DropTable(st.Name)
	case *InsertStmt:
		return db.execInsert(st)
	case *SelectStmt:
		return db.execSelect(st)
	case *UpdateStmt:
		return db.execUpdate(st)
	case *DeleteStmt:
		return db.execDelete(st)
	default:
		return nil, fmt.Errorf("rdb: unsupported statement %T", stmt)
	}
}

func (db *Database) execInsert(st *InsertStmt) (*Result, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, exprRow := range st.Rows {
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
		if err := db.Insert(st.Table, vals); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
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

func (rs *rowSet) lookup(qual, name string) (int, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	found := -1
	for i, c := range rs.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("rdb: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("rdb: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("rdb: unknown column %q", name)
	}
	return found, nil
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

func (db *Database) execSelect(st *SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	res := &Result{}

	// Build the base row set from FROM and JOIN clauses.
	rs, where, err := db.buildFrom(st, &res.Stats)
	if err != nil {
		return nil, err
	}

	// WHERE (any conjuncts not already consumed by the index path).
	if where != nil {
		where = rs.resolve(where)
		filtered := rs.rows[:0:0]
		for _, row := range rs.rows {
			v, err := evalSQL(where, rs, row)
			if err != nil {
				return nil, err
			}
			if xmldm.Truthy(v) {
				filtered = append(filtered, row)
			}
		}
		rs = &rowSet{cols: rs.cols, rows: filtered}
	}

	hasAgg := selectHasAggregate(st)
	if hasAgg || len(st.GroupBy) > 0 {
		rs, err = aggregate(st, rs)
		if err != nil {
			return nil, err
		}
		// After aggregation the row set's columns are exactly the output
		// columns; ORDER BY and LIMIT operate on it directly.
		if err := orderRows(st.OrderBy, rs, nil); err != nil {
			return nil, err
		}
		if st.Limit >= 0 && len(rs.rows) > st.Limit {
			rs.rows = rs.rows[:st.Limit]
		}
		for _, c := range rs.cols {
			res.Columns = append(res.Columns, c.name)
		}
		res.Rows = rs.rows
		return res, nil
	}

	// Non-aggregated: order on the full row set (so keys may reference
	// any input column), then project, then dedupe, then limit.
	if err := orderRows(st.OrderBy, rs, st.Items); err != nil {
		return nil, err
	}

	var outCols []string
	var outRows []Row
	if st.Star {
		for _, c := range rs.cols {
			outCols = append(outCols, c.name)
		}
		outRows = rs.rows
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
			outCols = append(outCols, itemName(item, i))
			proj[i] = projection{pos: -1, expr: item.Expr}
			if c, ok := item.Expr.(*ColRef); ok {
				if ci, err := rs.lookup(c.Table, c.Col); err == nil {
					proj[i].pos = ci
					continue
				}
			}
			proj[i].expr = rs.resolve(item.Expr)
		}
		// Every projected row is carved from one slab, capped at its own
		// length so that an append to one row cannot reach the next.
		n := len(st.Items)
		slab := make([]Value, len(rs.rows)*n)
		outRows = make([]Row, 0, len(rs.rows))
		for _, row := range rs.rows {
			out := Row(slab[:n:n])
			slab = slab[n:]
			for i, p := range proj {
				if p.pos >= 0 {
					out[i] = row[p.pos]
					continue
				}
				v, err := evalSQL(p.expr, rs, row)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			outRows = append(outRows, out)
		}
	}
	if st.Distinct {
		outRows = dedupeRows(outRows)
	}
	if st.Limit >= 0 && len(outRows) > st.Limit {
		outRows = outRows[:st.Limit]
	}
	res.Columns = outCols
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

// buildFrom materializes the FROM/JOIN row set, applying index-assisted
// scans for single-table queries when WHERE allows. It returns with it
// the part of WHERE the rows have still to pass: all of it, except an IN
// list the index has answered exactly.
func (db *Database) buildFrom(st *SelectStmt, stats *ExecStats) (*rowSet, SQLExpr, error) {
	load := func(tr TableRef, filter *indexFilter) (*rowSet, error) {
		t, ok := db.tables[strings.ToLower(tr.Table)]
		if !ok {
			return nil, fmt.Errorf("rdb: %w: %q", ErrNoTable, tr.Table)
		}
		rs := &rowSet{}
		qual := strings.ToLower(tr.Ref())
		for _, c := range t.Schema.Columns {
			rs.cols = append(rs.cols, colKey{qual: qual, name: strings.ToLower(c.Name)})
		}
		if filter != nil {
			idx := t.indexes[filter.column]
			var rids []int
			switch {
			case filter.eq != nil:
				rids = idx.lookupEq(filter.eq)
			case filter.in != nil:
				rids = idx.lookupIn(filter.in)
			default:
				rids = idx.lookupRange(filter.lo, filter.hi, filter.loInc, filter.hiInc)
			}
			stats.IndexUsed = true
			for _, rid := range rids {
				if !t.deleted[rid] {
					stats.RowsScanned++
					rs.rows = append(rs.rows, t.rows[rid])
				}
			}
			return rs, nil
		}
		t.scanAll(func(_ int, row Row) bool {
			stats.RowsScanned++
			rs.rows = append(rs.rows, row)
			return true
		})
		return rs, nil
	}

	// Index path: single table, WHERE has a usable conjunct.
	var filter *indexFilter
	where := st.Where
	if len(st.From) == 1 && len(st.Joins) == 0 && st.Where != nil {
		if t, ok := db.tables[strings.ToLower(st.From[0].Table)]; ok {
			filter = chooseIndexFilter(st.Where, t, st.From[0].Ref())
			if filter != nil && filter.in != nil {
				where = filter.rest
			}
		}
	}
	rs, err := load(st.From[0], filter)
	if err != nil {
		return nil, nil, err
	}
	// Additional FROM tables: cross product (WHERE applies later).
	for _, tr := range st.From[1:] {
		right, err := load(tr, nil)
		if err != nil {
			return nil, nil, err
		}
		rs = crossJoin(rs, right)
	}
	// JOIN ... ON: hash join on simple equality, else filtered cross.
	for _, jc := range st.Joins {
		right, err := load(jc.Table, nil)
		if err != nil {
			return nil, nil, err
		}
		joined, err := joinOn(rs, right, jc.On)
		if err != nil {
			return nil, nil, err
		}
		rs = joined
	}
	return rs, where, nil
}

type indexFilter struct {
	column       string  // lower-case
	eq           Value   // col = lit
	in           []Value // col IN (lit, …); non-nil even when the list is empty
	lo, hi       Value
	loInc, hiInc bool
	// rest is, for an IN filter, the other conjuncts of WHERE (nil when
	// there are none). IN tests with Equal, which is what the index
	// looks up by, so the rows it returns need not be checked against
	// the list again — a check that costs rows × list length.
	rest SQLExpr
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
				offer(rankIn, indexFilter{column: col, in: lits, rest: joinConjuncts(conjuncts, i)})
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
				offer(rank, indexFilter{column: col, eq: lit})
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

func crossJoin(l, r *rowSet) *rowSet {
	out := &rowSet{cols: append(append([]colKey{}, l.cols...), r.cols...)}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			row := make(Row, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// joinOn performs an inner join. When the ON condition contains an
// equality between a left column and a right column it builds a hash
// table on the right side; otherwise it falls back to a filtered cross
// product.
func joinOn(l, r *rowSet, on SQLExpr) (*rowSet, error) {
	out := &rowSet{cols: append(append([]colKey{}, l.cols...), r.cols...)}
	li, ri := findEquiJoin(on, l, r)
	resolved := out.resolve(on) // the cross product below has out's columns
	if li >= 0 {
		ht := make(map[uint64][]Row)
		for _, rr := range r.rows {
			h := xmldm.Hash(rr[ri])
			ht[h] = append(ht[h], rr)
		}
		for _, lr := range l.rows {
			for _, rr := range ht[xmldm.Hash(lr[li])] {
				if !xmldm.Equal(lr[li], rr[ri]) {
					continue
				}
				row := make(Row, 0, len(lr)+len(rr))
				row = append(row, lr...)
				row = append(row, rr...)
				// Residual ON predicates beyond the equality.
				v, err := evalSQL(resolved, out, row)
				if err != nil {
					return nil, err
				}
				if xmldm.Truthy(v) {
					out.rows = append(out.rows, row)
				}
			}
		}
		return out, nil
	}
	cross := crossJoin(l, r)
	filtered := cross.rows[:0]
	for _, row := range cross.rows {
		v, err := evalSQL(resolved, cross, row)
		if err != nil {
			return nil, err
		}
		if xmldm.Truthy(v) {
			filtered = append(filtered, row)
		}
	}
	cross.rows = filtered
	return cross, nil
}

// findEquiJoin locates an equality conjunct joining a left column to a
// right column and returns their positions, or (-1, -1).
func findEquiJoin(on SQLExpr, l, r *rowSet) (int, int) {
	for _, c := range splitConjuncts(on) {
		bin, ok := c.(*SQLBin)
		if !ok || bin.Op != "=" {
			continue
		}
		lc, lok := bin.L.(*ColRef)
		rc, rok := bin.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		if li, err := l.lookup(lc.Table, lc.Col); err == nil {
			if ri, err := r.lookup(rc.Table, rc.Col); err == nil {
				return li, ri
			}
		}
		if li, err := l.lookup(rc.Table, rc.Col); err == nil {
			if ri, err := r.lookup(lc.Table, lc.Col); err == nil {
				return li, ri
			}
		}
	}
	return -1, -1
}

func dedupeRows(rows []Row) []Row {
	seen := make(map[uint64][]Row)
	var out []Row
rowLoop:
	for _, row := range rows {
		h := hashRow(row)
		for _, prev := range seen[h] {
			if rowsEqual(prev, row) {
				continue rowLoop
			}
		}
		seen[h] = append(seen[h], row)
		out = append(out, row)
	}
	return out
}

func hashRow(row Row) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range row {
		h = h*1099511628211 ^ xmldm.Hash(v)
	}
	return h
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !xmldm.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
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

func selectHasAggregate(st *SelectStmt) bool {
	for _, item := range st.Items {
		if exprHasAggregate(item.Expr) {
			return true
		}
	}
	return st.Having != nil && exprHasAggregate(st.Having)
}

func exprHasAggregate(e SQLExpr) bool {
	switch x := e.(type) {
	case *SQLFunc:
		if sqlAggregates[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *SQLBin:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *SQLNot:
		return exprHasAggregate(x.E)
	case *SQLLike:
		return exprHasAggregate(x.E)
	case *SQLIn:
		return exprHasAggregate(x.E)
	case *SQLIsNull:
		return exprHasAggregate(x.E)
	}
	return false
}

// aggregate groups rs by the GROUP BY columns and evaluates the select
// items per group; the returned row set's columns are the output columns.
func aggregate(st *SelectStmt, rs *rowSet) (*rowSet, error) {
	if st.Star {
		return nil, fmt.Errorf("rdb: SELECT * cannot be combined with aggregation")
	}
	type group struct {
		key  Row
		rows []Row
	}
	var groups []*group
	byHash := make(map[uint64][]*group)
	keyIdx := make([]int, len(st.GroupBy))
	for i, cr := range st.GroupBy {
		ci, err := rs.lookup(cr.Table, cr.Col)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = ci
	}
	for _, row := range rs.rows {
		key := make(Row, len(keyIdx))
		for i, ci := range keyIdx {
			key[i] = row[ci]
		}
		h := hashRow(key)
		var g *group
		for _, cand := range byHash[h] {
			if rowsEqual(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key}
			byHash[h] = append(byHash[h], g)
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	// With no GROUP BY, aggregates run over the whole input — including
	// the empty input, which yields one row (COUNT(*) = 0).
	if len(st.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}

	out := &rowSet{}
	items := make([]SQLExpr, len(st.Items))
	for i, item := range st.Items {
		out.cols = append(out.cols, colKey{name: itemName(item, i)})
		items[i] = rs.resolve(item.Expr)
	}
	having := rs.resolve(st.Having)
	for _, g := range groups {
		if having != nil {
			v, err := evalAggExpr(having, rs, g.rows)
			if err != nil {
				return nil, err
			}
			if !xmldm.Truthy(v) {
				continue
			}
		}
		row := make(Row, len(items))
		for i, item := range items {
			v, err := evalAggExpr(item, rs, g.rows)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// evalAggExpr evaluates an expression over a group of rows: aggregates
// reduce the group; plain column references take the value from the
// first row (correct for grouped columns).
func evalAggExpr(e SQLExpr, rs *rowSet, rows []Row) (Value, error) {
	switch x := e.(type) {
	case *SQLFunc:
		if !sqlAggregates[x.Name] {
			break
		}
		if x.Star {
			if x.Name != "count" {
				return nil, fmt.Errorf("rdb: %s(*) is not valid", x.Name)
			}
			return xmldm.Int(len(rows)), nil
		}
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("rdb: %s takes one argument", x.Name)
		}
		var vals []Value
		for _, row := range rows {
			v, err := evalSQL(x.Args[0], rs, row)
			if err != nil {
				return nil, err
			}
			if v != nil && v.Kind() != xmldm.KindNull {
				vals = append(vals, v)
			}
		}
		return reduceAggregate(x.Name, vals)
	case *SQLBin:
		l, err := evalAggExpr(x.L, rs, rows)
		if err != nil {
			return nil, err
		}
		r, err := evalAggExpr(x.R, rs, rows)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, l, r)
	case *SQLNot:
		v, err := evalAggExpr(x.E, rs, rows)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(!xmldm.Truthy(v)), nil
	}
	if len(rows) == 0 {
		return xmldm.Null{}, nil
	}
	return evalSQL(e, rs, rows[0])
}

func reduceAggregate(name string, vals []Value) (Value, error) {
	switch name {
	case "count":
		return xmldm.Int(len(vals)), nil
	case "sum", "avg":
		if len(vals) == 0 {
			return xmldm.Null{}, nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, ok := xmldm.ToFloat(v)
			if !ok {
				return nil, fmt.Errorf("rdb: %s over non-numeric value %s", name, v.String())
			}
			if v.Kind() != xmldm.KindInt {
				allInt = false
			}
			sum += f
		}
		if name == "avg" {
			return xmldm.Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return xmldm.Int(int64(sum)), nil
		}
		return xmldm.Float(sum), nil
	case "min", "max":
		if len(vals) == 0 {
			return xmldm.Null{}, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := xmldm.Compare(v, best)
			if name == "min" && c < 0 || name == "max" && c > 0 {
				best = v
			}
		}
		return best, nil
	default:
		return nil, fmt.Errorf("rdb: unknown aggregate %q", name)
	}
}

func (db *Database) execUpdate(st *UpdateStmt) (*Result, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rs := &rowSet{}
	for _, c := range t.Schema.Columns {
		rs.cols = append(rs.cols, colKey{qual: strings.ToLower(st.Table), name: strings.ToLower(c.Name)})
	}
	where := rs.resolve(st.Where)
	sets := make([]SQLExpr, len(st.Sets))
	for i, set := range st.Sets {
		sets[i] = rs.resolve(set.Expr)
	}
	n := 0
	for rid, row := range t.rows {
		if t.deleted[rid] {
			continue
		}
		if where != nil {
			v, err := evalSQL(where, rs, row)
			if err != nil {
				return nil, err
			}
			if !xmldm.Truthy(v) {
				continue
			}
		}
		for si, set := range st.Sets {
			ci := t.Schema.ColIndex(set.Column)
			if ci < 0 {
				return nil, fmt.Errorf("rdb: no column %q in %q", set.Column, st.Table)
			}
			v, err := evalSQL(sets[si], rs, row)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.Schema.Columns[ci].Type)
			if err != nil {
				return nil, err
			}
			if idx, ok := t.indexes[strings.ToLower(t.Schema.Columns[ci].Name)]; ok {
				idx.remove(row[ci], rid)
				if err := idx.add(cv, rid); err != nil {
					return nil, err
				}
			}
			row[ci] = cv
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (db *Database) execDelete(st *DeleteStmt) (*Result, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rs := &rowSet{}
	for _, c := range t.Schema.Columns {
		rs.cols = append(rs.cols, colKey{qual: strings.ToLower(st.Table), name: strings.ToLower(c.Name)})
	}
	where := rs.resolve(st.Where)
	n := 0
	for rid, row := range t.rows {
		if t.deleted[rid] {
			continue
		}
		if where != nil {
			v, err := evalSQL(where, rs, row)
			if err != nil {
				return nil, err
			}
			if !xmldm.Truthy(v) {
				continue
			}
		}
		t.deleted[rid] = true
		t.live--
		for colName, idx := range t.indexes {
			ci := t.Schema.ColIndex(colName)
			idx.remove(row[ci], rid)
		}
		n++
	}
	return &Result{Affected: n}, nil
}
