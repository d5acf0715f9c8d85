package rdb

import (
	"fmt"
	"strings"

	"repro/internal/xmldm"
)

// colAt is a column reference resolved against the table a SELECT reads
// (rowSource.resolve): the value is at position i of its rows.
type colAt struct{ i int }

func (*colAt) isSQLExpr() {}

// evalSQL evaluates a scalar expression, resolved, against one row; row
// is nil for a constant expression, where a column is an error.
func evalSQL(e SQLExpr, row Row) (Value, error) {
	switch x := e.(type) {
	case *SQLLit:
		return x.Value, nil
	case *colAt:
		return row[x.i], nil
	case *ColRef:
		return nil, fmt.Errorf("rdb: column %q in constant context", x.Col)
	case *SQLBin:
		l, err := evalSQL(x.L, row)
		if err != nil {
			return nil, err
		}
		r, err := evalSQL(x.R, row)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, l, r)
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
		if v == nil || v.Kind() == xmldm.KindNull {
			return xmldm.Bool(false), nil
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
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalSQL(a, row)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applySQLFunc(x.Name, args)
	default:
		return nil, fmt.Errorf("rdb: unsupported expression %T", e)
	}
}

// applyBin applies a binary operator under SQL-ish semantics: comparisons
// with NULL yield false, arithmetic with NULL yields NULL. Division is the
// mediator's (algebra.Eval): a FLOAT, INT / INT included, so that a pushed
// predicate holds for the rows it holds for there.
func applyBin(op string, l, r Value) (Value, error) {
	lNull := l == nil || l.Kind() == xmldm.KindNull
	rNull := r == nil || r.Kind() == xmldm.KindNull
	switch op {
	case "AND":
		return xmldm.Bool(xmldm.Truthy(l) && xmldm.Truthy(r)), nil
	case "OR":
		return xmldm.Bool(xmldm.Truthy(l) || xmldm.Truthy(r)), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if lNull || rNull {
			return xmldm.Bool(false), nil
		}
		c := xmldm.Compare(l, r)
		switch op {
		case "=":
			return xmldm.Bool(c == 0), nil
		case "!=":
			return xmldm.Bool(c != 0), nil
		case "<":
			return xmldm.Bool(c < 0), nil
		case "<=":
			return xmldm.Bool(c <= 0), nil
		case ">":
			return xmldm.Bool(c > 0), nil
		default:
			return xmldm.Bool(c >= 0), nil
		}
	case "+", "-", "*", "/":
		if lNull || rNull {
			return xmldm.Null{}, nil
		}
		// String concatenation with + when the left side is non-numeric
		// text, as the mediator's algebra.Eval does.
		if op == "+" && l.Kind() == xmldm.KindString {
			if _, lok := xmldm.ToFloat(l); !lok {
				return xmldm.String(xmldm.Stringify(l) + xmldm.Stringify(r)), nil
			}
		}
		lf, lok := xmldm.ToFloat(l)
		rf, rok := xmldm.ToFloat(r)
		if !lok || !rok {
			return nil, fmt.Errorf("rdb: arithmetic on non-numeric values %s, %s", l.String(), r.String())
		}
		bothInt := l.Kind() == xmldm.KindInt && r.Kind() == xmldm.KindInt
		var f float64
		switch op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("rdb: division by zero")
			}
			return xmldm.Float(lf / rf), nil
		}
		if bothInt {
			return xmldm.Int(int64(f)), nil
		}
		return xmldm.Float(f), nil
	default:
		return nil, fmt.Errorf("rdb: unknown operator %q", op)
	}
}

// sqlFuncs are the scalar functions, the four sqlgen emits. Each takes
// one argument, read as text.
var sqlFuncs = map[string]func(string) Value{
	"lower":  func(s string) Value { return xmldm.String(strings.ToLower(s)) },
	"upper":  func(s string) Value { return xmldm.String(strings.ToUpper(s)) },
	"trim":   func(s string) Value { return xmldm.String(strings.TrimSpace(s)) },
	"length": func(s string) Value { return xmldm.Int(int64(len(s))) },
}

// checkSQLFunc reports a call of an unknown function, or of a known one
// with other than one argument.
func checkSQLFunc(name string, args int) error {
	if sqlFuncs[name] == nil {
		return fmt.Errorf("rdb: unknown function %q", name)
	}
	if args != 1 {
		return fmt.Errorf("rdb: %s expects 1 argument, got %d", name, args)
	}
	return nil
}

// applySQLFunc applies a scalar function.
func applySQLFunc(name string, args []Value) (Value, error) {
	if err := checkSQLFunc(name, len(args)); err != nil {
		return nil, err
	}
	return sqlFuncs[name](xmldm.Stringify(args[0])), nil
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
