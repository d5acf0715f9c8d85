// Package sqlgen is the compiler stage that translates an XML-QL query
// fragment into SQL for a relational source: "the compiler translates
// each fragment into the appropriate query language for the destination
// source; for example, if an RDB is being queried, then the compiler
// generates SQL" (§2.1). It consults the source's layout descriptors and
// index information, and reports which predicates it could push so the
// mediator evaluates only the remainder.
package sqlgen

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/xmlql"
)

// ErrNotTranslatable is returned when a pattern cannot be compiled to
// SQL (deep nesting, attributes, wildcard tags); the caller falls back
// to fetching the export document and matching in the mediator.
var ErrNotTranslatable = errors.New("sqlgen: pattern not translatable to SQL")

// Fragment is a compiled single-table SQL fragment.
type Fragment struct {
	// SQL is the generated statement.
	SQL string
	// Table is the source table the fragment reads.
	Table string
	// RowElement names the element each result row exports as.
	RowElement string
	// Columns maps each bound variable to the table column it reads: the
	// name WHERE conjuncts use, and the output column (and exported
	// child element) that carries its value.
	Columns map[string]string
	// PushedPredicates counts WHERE conjuncts evaluated at the source.
	PushedPredicates int
	// PushedOrder reports whether ORDER BY was pushed.
	PushedOrder bool

	// The statement in parts, so that a key list can join the WHERE
	// conjuncts after compilation: SELECT … FROM t, the conjuncts, and
	// the ORDER BY clause if one was pushed.
	head      string
	conjuncts []string
	orderBy   string
}

// KeyedSQL is the fragment's statement restricted to the rows whose col
// equals one of keys: SQL with "col IN ('k', …)" as one more conjunct.
// col must be a table column (a value of Columns); keys are data and
// each is quoted as a string literal.
func (f *Fragment) KeyedSQL(col string, keys []string) string {
	b := append([]byte(col), " IN ("...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendSQLString(b, k)
	}
	return f.render(string(append(b, ')')))
}

// KeyedLabel is KeyedSQL for display, with the list elided to its
// length: "… AND id IN (…24 keys)".
func (f *Fragment) KeyedLabel(col string, keys int) string {
	return f.render(fmt.Sprintf("%s IN (…%d keys)", col, keys))
}

// render assembles the statement, with extra (if not empty) as a last
// WHERE conjunct.
func (f *Fragment) render(extra string) string {
	conjuncts := f.conjuncts
	if extra != "" {
		conjuncts = append(conjuncts[:len(conjuncts):len(conjuncts)], extra)
	}
	if len(conjuncts) == 0 {
		return f.head + f.orderBy
	}
	return f.head + " WHERE " + strings.Join(conjuncts, " AND ") + f.orderBy
}

// Options tune compilation.
type Options struct {
	// PushSelections allows WHERE pushdown (subject to capabilities).
	PushSelections bool
	// PushProjections allows narrowing SELECT to the bound columns.
	PushProjections bool
	// OrderBy, if non-nil, is pushed when every key is a mapped variable
	// and the source supports ordering.
	OrderBy []xmlql.OrderKey
}

// DefaultOptions enables all pushdown.
func DefaultOptions() Options { return Options{PushSelections: true, PushProjections: true} }

// Compile translates a pattern plus candidate predicates into a SQL
// fragment for a source described by descs. It returns the fragment and
// the predicates it could NOT push (to be evaluated by the mediator).
// preds are in query order, the order the mediator runs them in, and the
// source runs the pushed ones before the mediator runs the rest, so a
// predicate after one it keeps is pushed only when neither that
// predicate nor any kept before it can fail (CanFail): moved
// ahead of a kept predicate, it would run on rows the mediator never
// gives it, or take away rows that make a kept one fail.
func Compile(descs []catalog.RelationalDescriptor, caps catalog.Capabilities,
	pat *xmlql.ElemPattern, preds []xmlql.Expr, opts Options) (*Fragment, []xmlql.Expr, error) {

	row, desc, err := resolveRowPattern(descs, pat)
	if err != nil {
		return nil, nil, err
	}
	if len(row.Attrs) > 0 || row.ElementAs != "" || row.ContentAs != "" || row.Tag.Var != "" {
		// Relational exports carry no attributes, and element/content
		// bindings need the XML form of the row, which SQL cannot build.
		return nil, nil, ErrNotTranslatable
	}

	varCol := make(map[string]string) // variable -> column
	var conjuncts []string
	for _, item := range row.Content {
		cp, ok := item.(*xmlql.ChildPattern)
		if !ok {
			return nil, nil, ErrNotTranslatable
		}
		e := cp.Elem
		if e.Tag.Var != "" || e.Tag.Wild || e.Tag.Descendant || len(e.Tag.Alts) > 0 ||
			len(e.Attrs) > 0 || e.ElementAs != "" || e.ContentAs != "" {
			return nil, nil, ErrNotTranslatable
		}
		col, ok := desc.ColumnElements[strings.ToLower(e.Tag.Name)]
		if !ok {
			return nil, nil, fmt.Errorf("%w: no column for element %q in table %q", ErrNotTranslatable, e.Tag.Name, desc.Table)
		}
		switch len(e.Content) {
		case 0:
			// Existence test: relational rows always carry the column.
		case 1:
			switch c := e.Content[0].(type) {
			case *xmlql.VarContent:
				if prev, bound := varCol[c.Var]; bound {
					// The same variable on two columns is an intra-row
					// equality predicate.
					conjuncts = append(conjuncts, prev+" = "+col)
				} else {
					varCol[c.Var] = col
				}
			case *xmlql.TextContent:
				conjuncts = append(conjuncts, col+" = "+sqlString(c.Text))
			default:
				return nil, nil, ErrNotTranslatable
			}
		default:
			return nil, nil, ErrNotTranslatable
		}
	}

	frag := &Fragment{Table: desc.Table, RowElement: desc.RowElement, Columns: varCol}

	// Predicate pushdown. Every predicate pushed is appended to one
	// buffer, so the cost is linear in the predicates' size however deep
	// they nest, and each conjunct is a slice of one string.
	var remaining []xmlql.Expr
	if opts.PushSelections && caps.Selection {
		buf := make([]byte, 0, 64)
		ends := make([]int, 0, len(preds))
		keptFails := false // whether a kept predicate can fail
		for _, p := range preds {
			start := len(buf)
			ok := false
			if len(remaining) == 0 || !keptFails && !CanFail(p) {
				buf, ok = appendPred(buf, p, varCol)
			}
			if ok {
				ends = append(ends, len(buf))
			} else {
				buf = buf[:start]
				remaining = append(remaining, p)
				keptFails = keptFails || CanFail(p)
			}
		}
		text, start := string(buf), 0
		for _, end := range ends {
			conjuncts = append(conjuncts, text[start:end])
			start = end
		}
		frag.PushedPredicates = len(ends)
	} else {
		remaining = preds
	}

	// Projection: select only the columns variables read, each once and
	// sorted by name, so the statement names table columns only and is
	// the same text whatever the query calls its variables.
	selectList := "*"
	if opts.PushProjections && caps.Projection && len(varCol) > 0 {
		cols := make([]string, 0, len(varCol))
		for _, col := range varCol {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		selectList = strings.Join(slices.Compact(cols), ", ")
	}

	frag.head = "SELECT " + selectList + " FROM " + desc.Table
	frag.conjuncts = conjuncts

	// ORDER BY pushdown.
	if caps.Ordering && len(opts.OrderBy) > 0 {
		var keys []string
		ok := true
		for _, k := range opts.OrderBy {
			v, isVar := k.Expr.(*xmlql.VarExpr)
			if !isVar {
				ok = false
				break
			}
			col, bound := varCol[v.Name]
			if !bound {
				ok = false
				break
			}
			if k.Desc {
				keys = append(keys, col+" DESC")
			} else {
				keys = append(keys, col)
			}
		}
		if ok && len(keys) > 0 {
			frag.orderBy = " ORDER BY " + strings.Join(keys, ", ")
			frag.PushedOrder = true
		}
	}

	frag.SQL = frag.render("")
	return frag, remaining, nil
}

// resolveRowPattern finds the element pattern that corresponds to a
// table's row element: the pattern itself, or a single child one level
// down (the query may include the source's wrapper element).
func resolveRowPattern(descs []catalog.RelationalDescriptor, pat *xmlql.ElemPattern) (*xmlql.ElemPattern, *catalog.RelationalDescriptor, error) {
	find := func(name string) *catalog.RelationalDescriptor {
		for i := range descs {
			if strings.EqualFold(descs[i].RowElement, name) || strings.EqualFold(descs[i].Table, name) {
				return &descs[i]
			}
		}
		return nil
	}
	if pat.Tag.Name != "" {
		if d := find(pat.Tag.Name); d != nil {
			return pat, d, nil
		}
		// Maybe the pattern wraps the row pattern: <crmdb><customer>…</customer></crmdb>.
		if len(pat.Content) == 1 {
			if cp, ok := pat.Content[0].(*xmlql.ChildPattern); ok && cp.Elem.Tag.Name != "" {
				if d := find(cp.Elem.Tag.Name); d != nil {
					if len(pat.Attrs) > 0 || pat.ElementAs != "" || pat.ContentAs != "" {
						return nil, nil, ErrNotTranslatable
					}
					return cp.Elem, d, nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("%w: no table exports element %q", ErrNotTranslatable, pat.Tag.String())
}

// CanFail reports whether the mediator's evaluator (algebra.Eval) can
// fail on e for some binding: e holds arithmetic, a nested query, or a
// call that is not one of totalFuncs with its number of arguments. A
// comparison, AND, OR, a variable or a parsed literal never fails by
// itself.
func CanFail(e xmlql.Expr) bool {
	switch x := e.(type) {
	case *xmlql.VarExpr:
		return false
	case *xmlql.LitExpr:
		switch x.Value.(type) {
		case string, int64, int, float64, bool:
			return false
		}
	case *xmlql.BinExpr:
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=", "AND", "OR":
			return CanFail(x.L) || CanFail(x.R)
		}
	case *xmlql.FuncExpr:
		if n, ok := totalFuncs[strings.ToLower(x.Name)]; ok && (n < 0 || n == len(x.Args)) {
			return slices.ContainsFunc(x.Args, CanFail)
		}
	}
	return true
}

// totalFuncs are the mediator's built-in functions that fail only when
// called with another number of arguments than this one (-1: any
// number). A function an engine registers under one of these names takes
// its place, and is not seen here.
var totalFuncs = map[string]int{
	"contains": 2, "startswith": 2, "endswith": 2, "concat": -1,
	"lower": 1, "upper": 1, "trim": 1, "length": 1, "strlen": 1,
	"not": 1, "number": 1, "string": 1, "exists": 1,
	"name": 1, "parent": 1, "siblings": 1, "root": 1,
}

// appendPred appends predicate e, whose variables are all
// column-mapped, to b as a SQL boolean expression; false means e cannot
// be pushed.
func appendPred(b []byte, e xmlql.Expr, varCol map[string]string) ([]byte, bool) {
	switch x := e.(type) {
	case *xmlql.BinExpr:
		switch x.Op {
		case "AND", "OR":
			return appendBin(b, x, false, varCol)
		case "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/":
			return appendBin(b, x, true, varCol)
		}
	case *xmlql.FuncExpr:
		switch strings.ToLower(x.Name) {
		case "contains", "startswith", "endswith":
			if len(x.Args) != 2 {
				return b, false
			}
			lit, isLit := x.Args[1].(*xmlql.LitExpr)
			if !isLit {
				return b, false
			}
			s, isStr := lit.Value.(string)
			if !isStr || strings.ContainsAny(s, "%_") {
				// LIKE metacharacters in the needle would change meaning;
				// leave such predicates to the mediator.
				return b, false
			}
			switch strings.ToLower(x.Name) {
			case "contains":
				s = "%" + s + "%"
			case "startswith":
				s = s + "%"
			case "endswith":
				s = "%" + s
			}
			b, ok := appendScalar(b, x.Args[0], varCol)
			return appendSQLString(append(b, " LIKE "...), s), ok
		case "not":
			if len(x.Args) != 1 {
				return b, false
			}
			return appendPred(append(b, "NOT "...), x.Args[0], varCol)
		}
	}
	return b, false
}

// appendBin appends "(l op r)" to b, the operands scalars or predicates.
func appendBin(b []byte, x *xmlql.BinExpr, scalars bool, varCol map[string]string) ([]byte, bool) {
	b = append(b, '(')
	for i, e := range [2]xmlql.Expr{x.L, x.R} {
		if i == 1 {
			b = append(append(append(b, ' '), x.Op...), ' ')
		}
		var ok bool
		if scalars {
			b, ok = appendScalar(b, e, varCol)
		} else {
			b, ok = appendPred(b, e, varCol)
		}
		if !ok {
			return b, false
		}
	}
	return append(b, ')'), true
}

// appendScalar appends a scalar expression (variables, literals,
// arithmetic, lower/upper/trim/length) as SQL to b; false means it
// cannot be pushed.
func appendScalar(b []byte, e xmlql.Expr, varCol map[string]string) ([]byte, bool) {
	switch x := e.(type) {
	case *xmlql.VarExpr:
		col, ok := varCol[x.Name]
		return append(b, col...), ok
	case *xmlql.LitExpr:
		switch v := x.Value.(type) {
		case string:
			return appendSQLString(b, v), true
		case int64:
			return strconv.AppendInt(b, v, 10), true
		case float64:
			// No exponent: rdb reads digits and one point, and an integer
			// past the int64 range as a FLOAT.
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return b, false
			}
			return strconv.AppendFloat(b, v, 'f', -1, 64), true
		case bool:
			if v {
				return append(b, "TRUE"...), true
			}
			return append(b, "FALSE"...), true
		}
	case *xmlql.BinExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return appendBin(b, x, true, varCol)
		}
	case *xmlql.FuncExpr:
		switch name := strings.ToLower(x.Name); name {
		case "lower", "upper", "trim", "length", "strlen":
			if len(x.Args) != 1 {
				return b, false
			}
			if name == "strlen" {
				name = "length"
			}
			b, ok := appendScalar(append(append(b, name...), '('), x.Args[0], varCol)
			return append(b, ')'), ok
		}
	}
	return b, false
}

// sqlString quotes a string literal for the SQL dialect.
func sqlString(s string) string {
	return string(appendSQLString(nil, s))
}

// appendSQLString appends s to b quoted as a string literal of the SQL
// dialect: between single quotes, each one inside doubled.
func appendSQLString(b []byte, s string) []byte {
	b = append(b, '\'')
	b = append(b, strings.ReplaceAll(s, "'", "''")...)
	return append(b, '\'')
}
