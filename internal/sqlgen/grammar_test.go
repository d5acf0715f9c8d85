package sqlgen

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/xmldm"
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
	pred := predicateGen(rng, vars, []any{int64(7), int64(0), int64(-3), int64(math.MaxInt64), int64(math.MinInt64),
		2.5, -0.75, 0.00001, -2.5e-7, 1e20, 99999999999999999999.0, 1e300, 5e-324,
		"London", "O'Brien", "", "it''s", true, false})
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

// TestPushedPredicatesAnswerAsTheMediator_Property: over random tables
// with NULL, BOOL, DATE, FLOAT, INT and VARCHAR cells, with an index on
// some columns or on none, a random pushable predicate (and now and then
// a comparison an index can answer beside it), now and then with a
// predicate the source cannot take (a contains needle holding %, over an
// argument that can fail or one that cannot, or its negation) before or
// after it, holds
// for the rows it holds for in the mediator. The mediator runs the
// conjuncts in query order with algebra.Eval over each row of the whole
// table bound as the mediator binds a pushed cell (its export text, NULL
// as ""); the other side is the compiled SQL run by rdb, then the
// predicates Compile kept, in order, over its rows. Each side fails
// exactly when the other does, and a pushed ORDER BY sorts the rows as
// the mediator sorts those bindings, ties in table order, also when an
// index range read them in key order.
func TestPushedPredicatesAnswerAsTheMediator_Property(t *testing.T) {
	cols := []string{"id", "n", "o", "d", "f", "k"}
	descs := []catalog.RelationalDescriptor{{Table: "p", RowElement: "p", KeyColumn: "id",
		ColumnElements: map[string]string{"id": "id", "n": "n", "o": "o", "d": "d", "f": "f", "k": "k"}}}
	pat, _ := patAndPreds(t, `WHERE <p><id>$id</id><n>$n</n><o>$o</o><d>$d</d><f>$f</f><k>$k</k></p> IN "m" CONSTRUCT <r/>`)
	day := func(y int, m time.Month, d, h int) xmldm.Value {
		return xmldm.Date(time.Date(y, m, d, h, 0, 0, 0, time.UTC))
	}
	pools := [][]xmldm.Value{
		{xmldm.String(""), xmldm.String("Ada"), xmldm.String("ada"), xmldm.String("7"), xmldm.String("007"), xmldm.String(" 12 "),
			xmldm.String("x"), xmldm.String("true"), xmldm.String("2020-01-02T00:00:00Z"), xmldm.String("NaN"), xmldm.String("-1.5")},
		{xmldm.Bool(true), xmldm.Bool(false)},
		{day(2020, 1, 2, 0), day(2021, 3, 4, 0), day(1999, 12, 31, 10)},
		{xmldm.Float(0.5), xmldm.Float(-2), xmldm.Float(7), xmldm.Float(1e20), xmldm.Float(math.NaN()), xmldm.Float(0)},
		{xmldm.Int(0), xmldm.Int(1), xmldm.Int(5), xmldm.Int(-3), xmldm.Int(7), xmldm.Int(12)},
	}
	lits := []any{int64(0), int64(1), int64(3), int64(7), int64(-3), 0.5, 2.5, "", "Ada", "7", "true", "false", "2020",
		"2020-01-02T00:00:00Z", "NaN", "x", true, false}
	rng := rand.New(rand.NewSource(46))
	vars := cols
	pred := predicateGen(rng, vars, lits)
	// run is the mediator: the conjuncts in order over each row.
	run := func(conj []xmlql.Expr, rows []*xmldm.Tuple) ([]*xmldm.Tuple, error) {
		var out []*xmldm.Tuple
	next:
		for _, b := range rows {
			for _, c := range conj {
				v, err := algebra.Eval(nil, c, b)
				if err != nil {
					return nil, err
				}
				if !xmldm.Truthy(v) {
					continue next
				}
			}
			out = append(out, b)
		}
		return out, nil
	}
	text := func(conj []xmlql.Expr) string {
		out := make([]string, len(conj))
		for i, c := range conj {
			out[i] = xmlql.ExprString(c)
		}
		return strings.Join(out, ", ")
	}
	checked, ordered, failed, heldBack := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		db := rdb.NewDatabase("m")
		db.MustExec(`CREATE TABLE p (id INT PRIMARY KEY, n VARCHAR, o BOOL, d DATE, f FLOAT, k INT)`)
		if trial%2 == 1 {
			for _, c := range cols[1:] {
				if rng.Intn(2) == 0 {
					db.MustExec(`CREATE INDEX ON p (` + c + `)`)
				}
			}
		}
		rows := rng.Intn(11)
		for id := 1; id <= rows; id++ {
			row := rdb.Row{xmldm.Int(int64(id))}
			for _, pool := range pools {
				v := xmldm.Value(xmldm.Null{})
				if rng.Intn(4) > 0 {
					v = pool[rng.Intn(len(pool))]
				}
				row = append(row, v)
			}
			if err := db.Insert("p", row); err != nil {
				t.Fatal(err)
			}
		}
		// The mediator's bindings: every row of the table, each cell bound
		// to its export text, NULL to "".
		all := db.MustExec(`SELECT * FROM p`)
		bindings := make([]*xmldm.Tuple, len(all.Rows))
		for r, row := range all.Rows {
			fields := make([]xmldm.Field, len(all.Columns))
			for i, c := range all.Columns {
				fields[i] = xmldm.Field{Name: c, Value: xmldm.String("")}
				if v := all.Text(row, i); v != nil {
					fields[i].Value = v
				}
			}
			bindings[r] = xmldm.NewTuple(fields...)
		}
		for k := 0; k < 8; k++ {
			p := pred(3)
			if rng.Intn(2) == 0 {
				simple := &xmlql.BinExpr{Op: []string{"=", "<", ">="}[rng.Intn(3)],
					L: &xmlql.VarExpr{Name: vars[rng.Intn(len(vars))]}, R: &xmlql.LitExpr{Value: lits[rng.Intn(len(lits))]}}
				p = &xmlql.BinExpr{Op: "AND", L: simple, R: p}
			}
			conj := []xmlql.Expr{p}
			var kept xmlql.Expr
			if rng.Intn(2) == 0 {
				arg := xmlql.Expr(&xmlql.VarExpr{Name: vars[rng.Intn(len(vars))]})
				if rng.Intn(2) == 0 {
					arg = &xmlql.BinExpr{Op: "/", L: &xmlql.LitExpr{Value: int64(1)}, R: arg}
				}
				kept = &xmlql.FuncExpr{Name: "contains", Args: []xmlql.Expr{arg, &xmlql.LitExpr{Value: "%"}}}
				if rng.Intn(2) == 0 {
					kept = &xmlql.FuncExpr{Name: "not", Args: []xmlql.Expr{kept}} // holds for every row it does not fail on
				}
				conj = slices.Insert(conj, rng.Intn(2), kept)
			}
			opts := Options{PushSelections: true, PushProjections: rng.Intn(2) == 0}
			for n := rng.Intn(3); n > 0; n-- {
				opts.OrderBy = append(opts.OrderBy, xmlql.OrderKey{Expr: &xmlql.VarExpr{Name: vars[rng.Intn(len(vars))]}, Desc: rng.Intn(2) == 0})
			}
			frag, rest, err := Compile(descs, sqlCaps(), pat, conj, opts)
			if err != nil || (kept == nil) != (len(rest) == 0) || kept != nil && rest[0] != kept || frag.PushedOrder != (len(opts.OrderBy) > 0) {
				t.Fatalf("trial %d: %s compiled to %v (%d left): %v", trial, text(conj), frag, len(rest), err)
			}
			if len(rest) == 2 {
				heldBack++
			}

			want, wantErr := run(conj, bindings)
			keyOf := func(b *xmldm.Tuple, k int) xmldm.Value {
				v, _ := b.Get(opts.OrderBy[k].Expr.(*xmlql.VarExpr).Name)
				return v
			}
			sort.SliceStable(want, func(i, j int) bool {
				for k, key := range opts.OrderBy {
					if c := xmldm.Compare(keyOf(want[i], k), keyOf(want[j], k)); c != 0 {
						return (c < 0) != key.Desc
					}
				}
				return false
			})

			res, err := db.Exec(frag.SQL)
			var got []*xmldm.Tuple
			if err == nil {
				got = make([]*xmldm.Tuple, len(res.Rows))
				for r, row := range res.Rows {
					fields := make([]xmldm.Field, len(res.Columns))
					for i, c := range res.Columns {
						fields[i] = xmldm.Field{Name: c, Value: xmldm.String("")}
						if v := res.Text(row, i); v != nil {
							fields[i].Value = v
						}
					}
					got[r] = xmldm.NewTuple(fields...)
				}
				got, err = run(rest, got)
			}
			switch {
			case err != nil && wantErr == nil:
				t.Fatalf("trial %d: %s then %s fails (%v) but not %s in the mediator", trial, frag.SQL, text(rest), err, text(conj))
			case err == nil && wantErr != nil:
				t.Fatalf("trial %d: %s fails in the mediator (%v) but not %s then %s", trial, text(conj), wantErr, frag.SQL, text(rest))
			case err != nil:
				failed++
				continue
			}
			// Without ORDER BY an index answers in its own order; with one,
			// ties keep table order on both sides.
			ids := func(ts []*xmldm.Tuple) string {
				out := make([]string, len(ts))
				for i, b := range ts {
					id, _ := b.Get("id")
					out[i] = xmldm.Stringify(id)
				}
				if len(opts.OrderBy) == 0 {
					slices.Sort(out)
				}
				return strings.Join(out, ",")
			}
			if ids(got) != ids(want) {
				t.Fatalf("trial %d: %s\nanswers ids %s in rdb, %s in the mediator\ntable %v", trial, frag.SQL, ids(got), ids(want), bindings)
			}
			checked++
			if len(opts.OrderBy) > 0 && len(got) > 1 {
				ordered++
			}
		}
	}
	if checked < 1000 || ordered < 200 || heldBack < 100 {
		t.Fatalf("only %d predicates checked, %d of them sorting two rows or more, %d held back behind a kept one (%d failed on both sides)", checked, ordered, heldBack, failed)
	}
	t.Logf("%d predicates checked, %d sorted, %d held back, %d failed on both sides", checked, ordered, heldBack, failed)
}

// predicateGen returns a generator of random pushable predicates over
// vars and lits: comparisons of scalars (variables, literals,
// arithmetic, lower, upper, trim, length and strlen), AND, OR, not, and
// contains, startswith and endswith of a scalar, nested up to depth.
func predicateGen(rng *rand.Rand, vars []string, lits []any) func(depth int) xmlql.Expr {
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
	return pred
}
