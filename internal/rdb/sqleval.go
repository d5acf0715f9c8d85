package rdb

import (
	"fmt"
	"strings"

	"repro/internal/xmldm"
)

// colAt is a column reference resolved against one row set
// (rowSet.resolve): the value is at position i of its rows.
type colAt struct{ i int }

func (*colAt) isSQLExpr() {}

// evalSQL evaluates a scalar expression against one row of a row set.
// rs and row may be nil for constant expressions.
func evalSQL(e SQLExpr, rs *rowSet, row Row) (Value, error) {
	switch x := e.(type) {
	case *SQLLit:
		return x.Value, nil
	case *colAt:
		return row[x.i], nil
	case *ColRef:
		if rs == nil {
			return nil, fmt.Errorf("rdb: column %s in constant context", x.String())
		}
		ci, err := rs.lookup(x.Table, x.Col)
		if err != nil {
			return nil, err
		}
		return row[ci], nil
	case *SQLBin:
		l, err := evalSQL(x.L, rs, row)
		if err != nil {
			return nil, err
		}
		r, err := evalSQL(x.R, rs, row)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, l, r)
	case *SQLNot:
		v, err := evalSQL(x.E, rs, row)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(!xmldm.Truthy(v)), nil
	case *SQLLike:
		v, err := evalSQL(x.E, rs, row)
		if err != nil {
			return nil, err
		}
		if v == nil || v.Kind() == xmldm.KindNull {
			return xmldm.Bool(false), nil
		}
		return xmldm.Bool(likeMatch(x.Pattern, xmldm.Stringify(v))), nil
	case *SQLIn:
		v, err := evalSQL(x.E, rs, row)
		if err != nil {
			return nil, err
		}
		for _, le := range x.List {
			lv, err := evalSQL(le, rs, row)
			if err != nil {
				return nil, err
			}
			if xmldm.Equal(v, lv) {
				return xmldm.Bool(true), nil
			}
		}
		return xmldm.Bool(false), nil
	case *SQLIsNull:
		v, err := evalSQL(x.E, rs, row)
		if err != nil {
			return nil, err
		}
		isNull := v == nil || v.Kind() == xmldm.KindNull
		return xmldm.Bool(isNull != x.Not), nil
	case *SQLFunc:
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalSQL(a, rs, row)
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
// with NULL yield false, arithmetic with NULL yields NULL.
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
		// String concatenation with +.
		if op == "+" && (l.Kind() == xmldm.KindString || r.Kind() == xmldm.KindString) {
			if _, lok := xmldm.ToFloat(l); !lok {
				return xmldm.String(xmldm.Stringify(l) + xmldm.Stringify(r)), nil
			}
			if _, rok := xmldm.ToFloat(r); !rok {
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
			f = lf / rf
			if bothInt {
				// SQL integer division truncates.
				return xmldm.Int(int64(lf) / int64(rf)), nil
			}
		}
		if bothInt {
			return xmldm.Int(int64(f)), nil
		}
		return xmldm.Float(f), nil
	default:
		return nil, fmt.Errorf("rdb: unknown operator %q", op)
	}
}

// applySQLFunc applies a scalar function.
func applySQLFunc(name string, args []Value) (Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("rdb: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	str := func(i int) string { return xmldm.Stringify(args[i]) }
	switch name {
	case "upper":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.ToUpper(str(0))), nil
	case "lower":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.ToLower(str(0))), nil
	case "length", "strlen":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.Int(int64(len(str(0)))), nil
	case "trim":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.TrimSpace(str(0))), nil
	case "substr":
		// substr(s, start[, len]) with 1-based start, as in SQL.
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("rdb: substr expects 2 or 3 arguments")
		}
		s := str(0)
		start, ok := xmldm.ToInt(args[1])
		if !ok {
			return nil, fmt.Errorf("rdb: substr start must be a number")
		}
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			i = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			n, ok := xmldm.ToInt(args[2])
			if !ok {
				return nil, fmt.Errorf("rdb: substr length must be a number")
			}
			if e := i + int(n); e < end {
				end = e
			}
			if end < i {
				end = i
			}
		}
		return xmldm.String(s[i:end]), nil
	case "concat":
		var sb strings.Builder
		for i := range args {
			sb.WriteString(str(i))
		}
		return xmldm.String(sb.String()), nil
	case "abs":
		if err := arity(1); err != nil {
			return nil, err
		}
		if i, ok := args[0].(xmldm.Int); ok {
			if i < 0 {
				return -i, nil
			}
			return i, nil
		}
		f, ok := xmldm.ToFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("rdb: abs of non-number")
		}
		if f < 0 {
			f = -f
		}
		return xmldm.Float(f), nil
	case "coalesce":
		for _, a := range args {
			if a != nil && a.Kind() != xmldm.KindNull {
				return a, nil
			}
		}
		return xmldm.Null{}, nil
	case "replace":
		if err := arity(3); err != nil {
			return nil, err
		}
		return xmldm.String(strings.ReplaceAll(str(0), str(1), str(2))), nil
	default:
		return nil, fmt.Errorf("rdb: unknown function %q", name)
	}
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
