package rdb

import (
	"fmt"

	"repro/internal/xmldm"
)

// colAt is a column reference resolved against the table a SELECT reads
// (rowSource.resolve): the value is at position i of its rows.
type colAt struct{ i int }

func (*colAt) isSQLExpr() {}

// evalSQL evaluates a scalar expression, resolved, against one row; row
// is nil for a constant expression, where a column is an error. A column
// reads as the mediator binds its cell (cellValue), and the operators
// and functions are the mediator's (xmldm.Apply, xmldm.TextFunc), AND
// and OR short-circuiting as there: a pushed predicate holds, or fails,
// for the rows it would without pushdown.
func evalSQL(e SQLExpr, row Row) (Value, error) {
	switch x := e.(type) {
	case *SQLLit:
		return x.Value, nil
	case *colAt:
		return cellValue(row, x.i), nil
	case *ColRef:
		return nil, fmt.Errorf("rdb: column %q in constant context", x.Col)
	case *SQLBin:
		l, err := evalSQL(x.L, row)
		if err != nil {
			return nil, err
		}
		if or := x.Op == "OR"; or || x.Op == "AND" {
			if xmldm.Truthy(l) == or {
				return xmldm.Bool(or), nil
			}
			r, err := evalSQL(x.R, row)
			if err != nil {
				return nil, err
			}
			return xmldm.Bool(xmldm.Truthy(r)), nil
		}
		r, err := evalSQL(x.R, row)
		if err != nil {
			return nil, err
		}
		return xmldm.Apply(x.Op, l, r)
	case *SQLNot:
		v, err := evalSQL(x.E, row)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(!xmldm.Truthy(v)), nil
	case *SQLLike:
		v, err := evalSQL(x.E, row)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(likeMatch(x.Pattern, xmldm.Stringify(v))), nil
	case *SQLIn:
		v, err := evalSQL(x.E, row)
		if err != nil {
			return nil, err
		}
		for _, le := range x.List {
			lv, err := evalSQL(le, row)
			if err != nil {
				return nil, err
			}
			if xmldm.Equal(v, lv) {
				return xmldm.Bool(true), nil
			}
		}
		return xmldm.Bool(false), nil
	case *SQLFunc:
		if err := checkSQLFunc(x.Name, len(x.Args)); err != nil {
			return nil, err
		}
		v, err := evalSQL(x.Args[0], row)
		if err != nil {
			return nil, err
		}
		v, _ = xmldm.TextFunc(x.Name, v)
		return v, nil
	default:
		return nil, fmt.Errorf("rdb: unsupported expression %T", e)
	}
}

// checkSQLFunc reports a call of a function other than the four sqlgen
// emits (xmldm.TextFunc's), or of one with other than one argument.
func checkSQLFunc(name string, args int) error {
	if _, ok := xmldm.TextFunc(name, nil); !ok {
		return fmt.Errorf("rdb: unknown function %q", name)
	}
	if args != 1 {
		return fmt.Errorf("rdb: %s expects 1 argument, got %d", name, args)
	}
	return nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte).
func likeMatch(pattern, s string) bool {
	// Dynamic-programming match over bytes; patterns are short.
	p, n := len(pattern), len(s)
	// match[j] means pattern[:i] matches s[:j].
	match := make([]bool, n+1)
	match[0] = true
	for j := 1; j <= n; j++ {
		match[j] = false
	}
	for i := 1; i <= p; i++ {
		pc := pattern[i-1]
		if pc == '%' {
			// new[j] = old[j] (match zero chars) || new[j-1] (extend the
			// run); updating left to right makes match[j-1] the new value.
			for j := 1; j <= n; j++ {
				match[j] = match[j] || match[j-1]
			}
			continue
		}
		newRow := make([]bool, n+1)
		newRow[0] = false
		for j := 1; j <= n; j++ {
			if pc == '_' || pc == s[j-1] {
				newRow[j] = match[j-1]
			}
		}
		copy(match, newRow)
	}
	return match[n]
}
