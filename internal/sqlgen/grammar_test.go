package sqlgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdb"
	"repro/internal/xmlql"
)

// TestCompiledPredicatesRunOnRDB_Property: random pushable predicates
// over the whole of sqlgen's output grammar compile to SQL that
// rdb.ParseSQL accepts and that Exec runs without a parse error — alone,
// with a key list (KeyedSQL) and with an ORDER BY of ascending and
// descending keys, with the projection pushed or not. The predicates mix
// literals (ints, negative numbers, floats too small and too large for
// %g to write without an exponent, strings with a quote, booleans),
// arithmetic, comparisons, AND, OR and not, contains, startswith and
// endswith, and lower, upper, trim and length (strlen). Exec may still
// refuse a value at run time (arithmetic on text, division by zero), as
// the mediator does; no other error is allowed.
func TestCompiledPredicatesRunOnRDB_Property(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'O''Brien', ' Cork '), (3, '7', NULL), (4, '', '12.5')`)
	pat, _ := patAndPreds(t, `WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb" CONSTRUCT <r/>`)
	rng := rand.New(rand.NewSource(43))
	vars := []string{"i", "n", "c"}
	lits := []any{int64(7), int64(0), int64(-3), int64(math.MaxInt64), int64(math.MinInt64),
		2.5, -0.75, 0.00001, -2.5e-7, 1e20, 99999999999999999999.0, 1e300, 5e-324,
		"London", "O'Brien", "", "it''s", true, false}
	var scalar func(depth int) xmlql.Expr
	scalar = func(depth int) xmlql.Expr {
		switch k := rng.Intn(5); {
		case depth == 0 || k == 0:
			return &xmlql.VarExpr{Name: vars[rng.Intn(len(vars))]}
		case k == 1:
			return &xmlql.LitExpr{Value: lits[rng.Intn(len(lits))]}
		case k == 2:
			return &xmlql.BinExpr{Op: []string{"+", "-", "*", "/"}[rng.Intn(4)], L: scalar(depth - 1), R: scalar(depth - 1)}
		default:
			fn := []string{"lower", "upper", "trim", "length", "strlen"}[rng.Intn(5)]
			return &xmlql.FuncExpr{Name: fn, Args: []xmlql.Expr{scalar(depth - 1)}}
		}
	}
	var pred func(depth int) xmlql.Expr
	pred = func(depth int) xmlql.Expr {
		switch k := rng.Intn(6); {
		case depth == 0 || k < 2:
			op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
			return &xmlql.BinExpr{Op: op, L: scalar(2), R: scalar(2)}
		case k == 2:
			return &xmlql.BinExpr{Op: "AND", L: pred(depth - 1), R: pred(depth - 1)}
		case k == 3:
			return &xmlql.BinExpr{Op: "OR", L: pred(depth - 1), R: pred(depth - 1)}
		case k == 4:
			return &xmlql.FuncExpr{Name: "not", Args: []xmlql.Expr{pred(depth - 1)}}
		default:
			fn := []string{"contains", "startswith", "endswith"}[rng.Intn(3)]
			needle := []string{"a", "O'B", "", " ", "12"}[rng.Intn(5)]
			return &xmlql.FuncExpr{Name: fn, Args: []xmlql.Expr{scalar(1), &xmlql.LitExpr{Value: needle}}}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		opts := Options{PushSelections: true, PushProjections: rng.Intn(2) == 0}
		for k := rng.Intn(3); k > 0; k-- {
			opts.OrderBy = append(opts.OrderBy, xmlql.OrderKey{Expr: &xmlql.VarExpr{Name: vars[rng.Intn(len(vars))]}, Desc: rng.Intn(2) == 0})
		}
		p := pred(3)
		frag, rest, err := Compile(crmDescs(), sqlCaps(), pat, []xmlql.Expr{p}, opts)
		if err != nil || len(rest) != 0 || frag.PushedPredicates != 1 || frag.PushedOrder != (len(opts.OrderBy) > 0) {
			t.Fatalf("trial %d: %#v compiled to %v (%d left, order pushed %v): %v", trial, p, frag, len(rest), frag != nil && frag.PushedOrder, err)
		}
		for _, sql := range []string{frag.SQL, frag.KeyedSQL("id", []string{"1", "O'Brien", "-0.5"})} {
			if _, err := rdb.ParseSQL(sql); err != nil {
				t.Fatalf("trial %d: rdb does not parse %s: %v", trial, sql, err)
			}
			if _, err := db.Exec(sql); err != nil && !strings.Contains(err.Error(), "arithmetic on non-numeric values") &&
				!strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("trial %d: rdb does not run %s: %v", trial, sql, err)
			}
		}
	}
}
