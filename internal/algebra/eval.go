package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Eval evaluates an XML-QL expression against a binding. Unbound
// variables evaluate to Null (a pattern that did not bind them produced
// no rows anyway; in predicates over optional data Null compares false).
func Eval(ctx *Context, e xmlql.Expr, b Binding) (xmldm.Value, error) {
	switch x := e.(type) {
	case *xmlql.VarExpr:
		if v, ok := b.Get(x.Name); ok {
			return v, nil
		}
		return xmldm.Null{}, nil
	case *xmlql.LitExpr:
		switch v := x.Value.(type) {
		case string:
			return xmldm.String(v), nil
		case int64:
			return xmldm.Int(v), nil
		case int:
			return xmldm.Int(v), nil
		case float64:
			return xmldm.Float(v), nil
		case bool:
			return xmldm.Bool(v), nil
		default:
			return nil, fmt.Errorf("algebra: unsupported literal %T", x.Value)
		}
	case *xmlql.BinExpr:
		return evalBin(ctx, x, b)
	case *xmlql.FuncExpr:
		args := make([]xmldm.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(ctx, a, b)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		if ctx != nil && ctx.Funcs != nil {
			if fn, ok := ctx.Funcs[x.Name]; ok {
				return fn(args)
			}
		}
		return applyFunc(x.Name, args)
	case *xmlql.AggExpr:
		if ctx == nil || ctx.SubqueryEval == nil {
			return nil, fmt.Errorf("algebra: aggregate %s requires a subquery evaluator", x.Op)
		}
		vals, err := ctx.SubqueryEval(x.Query, b)
		if err != nil {
			return nil, err
		}
		return reduceAgg(x.Op, vals)
	default:
		return nil, fmt.Errorf("algebra: unsupported expression %T", e)
	}
}

func evalBin(ctx *Context, x *xmlql.BinExpr, b Binding) (xmldm.Value, error) {
	// Short-circuit logical operators.
	switch x.Op {
	case "AND":
		l, err := Eval(ctx, x.L, b)
		if err != nil {
			return nil, err
		}
		if !xmldm.Truthy(l) {
			return xmldm.Bool(false), nil
		}
		r, err := Eval(ctx, x.R, b)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(xmldm.Truthy(r)), nil
	case "OR":
		l, err := Eval(ctx, x.L, b)
		if err != nil {
			return nil, err
		}
		if xmldm.Truthy(l) {
			return xmldm.Bool(true), nil
		}
		r, err := Eval(ctx, x.R, b)
		if err != nil {
			return nil, err
		}
		return xmldm.Bool(xmldm.Truthy(r)), nil
	}
	l, err := Eval(ctx, x.L, b)
	if err != nil {
		return nil, err
	}
	r, err := Eval(ctx, x.R, b)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.Kind() == xmldm.KindNull || r.Kind() == xmldm.KindNull {
			return xmldm.Bool(false), nil
		}
		c := xmldm.Compare(l, r)
		var res bool
		switch x.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return xmldm.Bool(res), nil
	case "+", "-", "*", "/":
		if x.Op == "+" {
			// String concatenation when the left side is non-numeric text.
			if _, lok := xmldm.ToFloat(l); !lok {
				if l.Kind() == xmldm.KindString || l.Kind() == xmldm.KindNode {
					return xmldm.String(xmldm.Stringify(l) + xmldm.Stringify(r)), nil
				}
			}
		}
		lf, lok := xmldm.ToFloat(l)
		rf, rok := xmldm.ToFloat(r)
		if !lok || !rok {
			return nil, fmt.Errorf("algebra: arithmetic on non-numeric values %q, %q", xmldm.Stringify(l), xmldm.Stringify(r))
		}
		var f float64
		switch x.Op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("algebra: division by zero")
			}
			f = lf / rf
		}
		if f == float64(int64(f)) && isIntLike(l) && isIntLike(r) && x.Op != "/" {
			return xmldm.Int(int64(f)), nil
		}
		return xmldm.Float(f), nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %q", x.Op)
	}
}

func isIntLike(v xmldm.Value) bool {
	switch v.Kind() {
	case xmldm.KindInt, xmldm.KindBool:
		return true
	case xmldm.KindString, xmldm.KindNode:
		_, err := strconv.ParseInt(strings.TrimSpace(xmldm.Stringify(v)), 10, 64)
		return err == nil
	default:
		return false
	}
}

// applyFunc implements the built-in scalar functions.
func applyFunc(name string, args []xmldm.Value) (xmldm.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("algebra: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	str := func(i int) string { return xmldm.Stringify(args[i]) }
	switch strings.ToLower(name) {
	case "contains":
		if err := arity(2); err != nil {
			return nil, err
		}
		return xmldm.Bool(strings.Contains(str(0), str(1))), nil
	case "startswith":
		if err := arity(2); err != nil {
			return nil, err
		}
		return xmldm.Bool(strings.HasPrefix(str(0), str(1))), nil
	case "endswith":
		if err := arity(2); err != nil {
			return nil, err
		}
		return xmldm.Bool(strings.HasSuffix(str(0), str(1))), nil
	case "lower":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.ToLower(str(0))), nil
	case "upper":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.ToUpper(str(0))), nil
	case "trim":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(strings.TrimSpace(str(0))), nil
	case "strlen", "length":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.Int(int64(len(str(0)))), nil
	case "concat":
		var sb strings.Builder
		for i := range args {
			sb.WriteString(str(i))
		}
		return xmldm.String(sb.String()), nil
	case "substr":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("algebra: substr expects 2 or 3 arguments")
		}
		s := str(0)
		start, ok := xmldm.ToInt(args[1])
		if !ok {
			return nil, fmt.Errorf("algebra: substr start must be numeric")
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
				return nil, fmt.Errorf("algebra: substr length must be numeric")
			}
			if e := i + int(n); e < end {
				end = e
			}
			if end < i {
				end = i
			}
		}
		return xmldm.String(s[i:end]), nil
	case "not":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.Bool(!xmldm.Truthy(args[0])), nil
	case "number":
		if err := arity(1); err != nil {
			return nil, err
		}
		if f, ok := xmldm.ToFloat(args[0]); ok {
			return xmldm.Float(f), nil
		}
		return xmldm.Null{}, nil
	case "string":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.String(str(0)), nil
	case "exists":
		if err := arity(1); err != nil {
			return nil, err
		}
		return xmldm.Bool(args[0] != nil && args[0].Kind() != xmldm.KindNull), nil
	case "name":
		// name($e): the tag name of a bound element.
		if err := arity(1); err != nil {
			return nil, err
		}
		if n, ok := args[0].(*xmldm.Node); ok {
			return xmldm.String(n.Name), nil
		}
		return xmldm.Null{}, nil
	case "parent":
		// parent($e): the parent element of a bound node — §4's upward
		// navigation from inside a query.
		if err := arity(1); err != nil {
			return nil, err
		}
		if n, ok := args[0].(*xmldm.Node); ok && n.Parent != nil {
			return n.Parent, nil
		}
		return xmldm.Null{}, nil
	case "siblings":
		// siblings($e): the element's following siblings, as a
		// collection — §4's sideways navigation.
		if err := arity(1); err != nil {
			return nil, err
		}
		n, ok := args[0].(*xmldm.Node)
		if !ok {
			return xmldm.Null{}, nil
		}
		vals := (xmldm.Path{{Axis: xmldm.AxisFollowingSibling, Name: "*"}}).Eval(n)
		return xmldm.NewCollection(vals...), nil
	case "root":
		// root($e): the document root of a bound node.
		if err := arity(1); err != nil {
			return nil, err
		}
		n, ok := args[0].(*xmldm.Node)
		if !ok {
			return xmldm.Null{}, nil
		}
		for n.Parent != nil {
			n = n.Parent
		}
		return n, nil
	default:
		return nil, fmt.Errorf("algebra: unknown function %q", name)
	}
}

// reduceAgg reduces the values of a nested query under an aggregate.
func reduceAgg(op string, vals []xmldm.Value) (xmldm.Value, error) {
	switch op {
	case "count":
		return xmldm.Int(int64(len(vals))), nil
	case "sum", "avg":
		if len(vals) == 0 {
			if op == "sum" {
				return xmldm.Int(0), nil
			}
			return xmldm.Null{}, nil
		}
		total := 0.0
		for _, v := range vals {
			f, ok := xmldm.ToFloat(v)
			if !ok {
				return nil, fmt.Errorf("algebra: %s over non-numeric value %q", op, xmldm.Stringify(v))
			}
			total += f
		}
		if op == "avg" {
			return xmldm.Float(total / float64(len(vals))), nil
		}
		if total == float64(int64(total)) {
			return xmldm.Int(int64(total)), nil
		}
		return xmldm.Float(total), nil
	case "min", "max":
		if len(vals) == 0 {
			return xmldm.Null{}, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := xmldm.Compare(v, best)
			if op == "min" && c < 0 || op == "max" && c > 0 {
				best = v
			}
		}
		return best, nil
	default:
		return nil, fmt.Errorf("algebra: unknown aggregate %q", op)
	}
}
