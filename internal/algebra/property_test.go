package algebra

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rdb"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// randomDataDoc builds a random two-level document of <rec> elements
// with a fixed small vocabulary, the shape integration queries see.
func randomDataDoc(rng *rand.Rand) *xmldm.Node {
	b := xmldm.NewBuilder()
	vals := []string{"x", "y", "z"}
	var kids []any
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		var fields []any
		// 1-3 fields out of {a, b, c}, possibly repeated.
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			name := string(rune('a' + rng.Intn(3)))
			fields = append(fields, b.Elem(name, vals[rng.Intn(len(vals))]))
		}
		kids = append(kids, b.Elem("rec", fields...))
	}
	return b.Elem("doc", kids...)
}

// TestTextContentEqualsVarPlusSelect_Property: matching a pattern with a
// literal text constraint must produce exactly the bindings of the same
// pattern with a variable, filtered by equality on that variable. This
// ties the matcher's literal path to its binding path through the
// expression evaluator.
func TestTextContentEqualsVarPlusSelect_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDataDoc(rng)
		field := string(rune('a' + rng.Intn(3)))
		lit := []string{"x", "y", "z"}[rng.Intn(3)]

		litPat := xmlql.MustParse(fmt.Sprintf(
			`WHERE <rec><%s>%q</%s></rec> ELEMENT_AS $e IN "d" CONSTRUCT <r/>`,
			field, lit, field)).Where[0].(*xmlql.PatternCond).Pattern
		varPat := xmlql.MustParse(fmt.Sprintf(
			`WHERE <rec><%s>$v</%s></rec> ELEMENT_AS $e IN "d" CONSTRUCT <r/>`,
			field, field)).Where[0].(*xmlql.PatternCond).Pattern

		ctx := &Context{}
		litBs, err := MatchPattern(ctx, doc, litPat, xmldm.NewTuple())
		if err != nil {
			t.Log(err)
			return false
		}
		varBs, err := MatchPattern(ctx, doc, varPat, xmldm.NewTuple())
		if err != nil {
			t.Log(err)
			return false
		}
		pred := xmlql.MustParse(fmt.Sprintf(
			`WHERE <a>$q</a> IN "s", $v = %q CONSTRUCT <r/>`, lit)).Where[1].(*xmlql.PredicateCond).Expr
		filtered, err := Drain(ctx, &Select{Input: &TupleScan{Tuples: varBs}, Pred: pred})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(litBs) != len(filtered) {
			t.Logf("seed %d: literal %d vs var+select %d (field %s lit %s)\ndoc: %s",
				seed, len(litBs), len(filtered), field, lit, doc)
			return false
		}
		// Same elements bound, in the same order.
		for i := range litBs {
			le, _ := litBs[i].Get("e")
			fe, _ := filtered[i].Get("e")
			if le.(*xmldm.Node) != fe.(*xmldm.Node) {
				t.Logf("seed %d: element %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNestedPatternEqualsElementAsRematch_Property: matching a nested
// pattern in one shot equals matching the outer element, binding it
// with ELEMENT_AS, and re-matching the inner pattern within it via the
// Match operator's SourceVar path — the equivalence the planner relies
// on when it chains variable-targeted groups.
func TestNestedPatternEqualsElementAsRematch_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDataDoc(rng)
		field := string(rune('a' + rng.Intn(3)))

		oneShot := xmlql.MustParse(fmt.Sprintf(
			`WHERE <rec><%s>$v</%s></rec> IN "d" CONSTRUCT <r/>`, field, field)).
			Where[0].(*xmlql.PatternCond).Pattern
		ctx := &Context{}
		direct, err := MatchPattern(ctx, doc, oneShot, xmldm.NewTuple())
		if err != nil {
			return false
		}

		outer := xmlql.MustParse(`WHERE <rec/> ELEMENT_AS $e IN "d" CONSTRUCT <r/>`).
			Where[0].(*xmlql.PatternCond).Pattern
		inner := xmlql.MustParse(fmt.Sprintf(
			`WHERE <%s>$v</%s> IN $e CONSTRUCT <r/>`, field, field)).
			Where[0].(*xmlql.PatternCond).Pattern
		m1 := &Match{Input: &Singleton{}, Pattern: outer,
			Roots: func(*Context) ([]xmldm.Value, error) { return []xmldm.Value{doc}, nil }}
		m2 := &Match{Input: m1, Pattern: inner, SourceVar: "e"}
		chained, err := Drain(ctx, m2)
		if err != nil {
			return false
		}
		if len(direct) != len(chained) {
			t.Logf("seed %d: direct %d vs chained %d\ndoc: %s", seed, len(direct), len(chained), doc)
			return false
		}
		for i := range direct {
			dv, _ := direct[i].Get("v")
			cv, _ := chained[i].Get("v")
			if !xmldm.Equal(dv, cv) {
				t.Logf("seed %d: binding %d: %v vs %v", seed, i, dv, cv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHashJoinEqualsNestedLoop_Property: HashJoin agrees with the
// nested-loop reference (join_ref_test.go) on shared-variable joins (up
// to order, both are deterministic here because inputs replay in order).
func TestHashJoinEqualsNestedLoop_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []Binding {
			out := make([]Binding, n)
			for i := range out {
				out[i] = xmldm.NewTuple(
					xmldm.Field{Name: "k", Value: xmldm.Int(int64(rng.Intn(4)))},
					xmldm.Field{Name: fmt.Sprintf("u%d", seed%2), Value: xmldm.Int(int64(i))},
				)
			}
			return out
		}
		left, right := mk(rng.Intn(8)), mk(rng.Intn(8))
		ctx := &Context{}
		h, err := Drain(ctx, &HashJoin{Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}})
		if err != nil {
			return false
		}
		nl, err := nestedLoop(ctx, left, right, nil)
		if err != nil {
			return false
		}
		if len(h) != len(nl) {
			t.Logf("seed %d: hash %d vs nested-loop %d", seed, len(h), len(nl))
			return false
		}
		// Compare as multisets of rendered bindings.
		count := map[string]int{}
		for _, b := range h {
			count[b.String()]++
		}
		for _, b := range nl {
			count[b.String()]--
		}
		for _, c := range count {
			if c != 0 {
				t.Logf("seed %d: multiset mismatch", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// joinValue draws one join-cell value from the kinds that meet at a
// federated join: integers, floats, numeric-looking and plain strings,
// the empty string, Null, booleans and bound elements.
func joinValue(rng *rand.Rand) xmldm.Value {
	switch rng.Intn(14) {
	case 0:
		return xmldm.Null{}
	case 1:
		return xmldm.String("")
	case 2:
		return xmldm.Int(int64(rng.Intn(3)))
	case 3:
		return xmldm.Float(float64(rng.Intn(3)))
	case 4:
		return xmldm.Float(2.5)
	case 5:
		return xmldm.String(fmt.Sprintf("%d", rng.Intn(3)))
	case 6:
		return xmldm.String(fmt.Sprintf("00%d", rng.Intn(3)))
	case 7:
		return xmldm.String(fmt.Sprintf(" %d ", rng.Intn(3)))
	case 8:
		return xmldm.String("2.50")
	case 9:
		return xmldm.String([]string{"x", "y"}[rng.Intn(2)])
	case 10:
		return xmldm.NewBuilder().Elem("v", fmt.Sprintf("%d", rng.Intn(3)))
	case 11:
		return xmldm.NewBuilder().Elem("v", "x")
	case 12:
		return xmldm.NewBuilder().Elem("v")
	default:
		return xmldm.Bool(rng.Intn(2) == 0)
	}
}

// textJoinValue draws a join-cell value from the kinds a bind join can
// ship as a key — non-empty strings and elements — beside Null, which
// asks for nothing: numeric-looking text in every spelling ("007" vs 7,
// " 12 "), plain text, and bound elements.
func textJoinValue(rng *rand.Rand) xmldm.Value {
	switch rng.Intn(8) {
	case 0:
		return xmldm.Null{}
	case 1:
		return xmldm.String(fmt.Sprintf("%d", rng.Intn(3)))
	case 2:
		return xmldm.String(fmt.Sprintf("00%d", rng.Intn(3)))
	case 3:
		return xmldm.String(fmt.Sprintf(" %d ", 10+rng.Intn(3)))
	case 4:
		return xmldm.String("2.50")
	case 5:
		return xmldm.String([]string{"x", "y"}[rng.Intn(2)])
	case 6:
		return xmldm.NewBuilder().Elem("v", fmt.Sprintf("%d", rng.Intn(3)))
	default:
		return xmldm.NewBuilder().Elem("v", "x")
	}
}

// joinSide builds one input of the keyed-join property: key is the
// side's pair variable, drawn by value (now and then left unbound), g a
// natural variable both sides share, id a per-side payload that makes
// order visible.
func joinSide(rng *rand.Rand, n int, key, id string, value func(*rand.Rand) xmldm.Value) []Binding {
	out := make([]Binding, n)
	for i := range out {
		fields := []xmldm.Field{{Name: id, Value: xmldm.Int(int64(i))}}
		if rng.Intn(10) > 0 {
			fields = append(fields, xmldm.Field{Name: key, Value: value(rng)})
		}
		g := []xmldm.Value{xmldm.Int(0), xmldm.String("0"), xmldm.Int(1), xmldm.Null{}}[rng.Intn(4)]
		out[i] = xmldm.NewTuple(append(fields, xmldm.Field{Name: "g", Value: g})...)
	}
	return out
}

// keyedScan stands in for the right leaf of a bind join: told keys, it
// delivers the rows whose key cell equals one of them as text — what an
// index over the stored values looks up — in input order; told whole, all
// of them. It records what it was told, and fails the test if it is
// opened untold or with nothing to look up.
type keyedScan struct {
	TupleScan
	t     *testing.T
	all   []Binding
	key   string
	told  bool
	keys  int
	whole bool
}

func (s *keyedScan) ship(keys []string, whole bool) {
	s.told, s.keys, s.whole = true, len(keys), whole
	s.Tuples = s.all
	if whole {
		return
	}
	s.Tuples = nil
	for _, r := range s.all {
		v, _ := r.Get(s.key)
		for _, k := range keys {
			if xmldm.Equal(v, xmldm.String(k)) {
				s.Tuples = append(s.Tuples, r)
				break
			}
		}
	}
}

func (s *keyedScan) Open(ctx *Context) error {
	if !s.told || (!s.whole && s.keys == 0) {
		s.t.Errorf("right leaf opened with told=%v keys=%d whole=%v", s.told, s.keys, s.whole)
	}
	return s.TupleScan.Open(ctx)
}

// TestHashJoinKeyPairsAreTheSameRelation_Property: a HashJoin keyed on
// the pair $a=$b (beside the natural variable $g) emits, at every degree,
// exactly the sequence of the nested-loop join with the predicate and of
// the pair-less HashJoin under a Select — the plan the planner used to
// build for a join predicate. So does the same join bound on $a, whose
// right side delivers only what the left side's keys look up: on even
// seeds the left keys are all text a bind join ships (or Null, or
// unbound), on odd seeds they are of every kind and one unshippable key
// makes the join fall back; every third seed the cap sits one under the
// distinct keys.
func TestHashJoinKeyPairsAreTheSameRelation_Property(t *testing.T) {
	lowerGates(t, 0)
	pred := &xmlql.BinExpr{Op: "=", L: &xmlql.VarExpr{Name: "a"}, R: &xmlql.VarExpr{Name: "b"}}
	pairs := []KeyPair{{Left: "a", Right: "b"}}
	matched := 0
	var bound, noKeys, pastCap, unshippable int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := rng.Intn(14), rng.Intn(14)
		if seed%10 == 0 {
			nl = 0
		}
		if seed%10 == 1 {
			nr = 0
		}
		leftValue := joinValue
		if seed%2 == 0 {
			leftValue = textJoinValue
		}
		left, right := joinSide(rng, nl, "a", "l", leftValue), joinSide(rng, nr, "b", "r", joinValue)
		scans := func() (Operator, Operator) {
			return &TupleScan{Tuples: left}, &TupleScan{Tuples: right}
		}

		want, err := nestedLoop(&Context{}, left, right, pred)
		if err != nil {
			t.Fatal(err)
		}
		matched += len(want)

		l, r := scans()
		viaSelect := drainAll(t, &Context{}, &Select{Input: &HashJoin{Left: l, Right: r}, Pred: pred})
		if !bindingsEqual(viaSelect, want) {
			t.Fatalf("seed %d: HashJoin+Select emits %v, nested loop %v", seed, viaSelect, want)
		}

		// What the bound join should do with this left side.
		distinct, shippable := map[string]bool{}, true
		for _, b := range left {
			if v, _ := b.Get("a"); !isNull(v) {
				text, ok := keyText(v)
				distinct[text] = true
				shippable = shippable && ok
			}
		}
		maxKeys := 100
		if seed%3 == 0 && len(distinct) > 0 {
			maxKeys = len(distinct) - 1
		}
		wantWhole := !shippable || len(distinct) > maxKeys

		for _, workers := range []int{1, 2, 8} {
			for _, on := range [][]string{nil, {"g"}} {
				l, r = scans()
				got := drainAll(t, schedCtx(), &HashJoin{Left: l, Right: r, On: on, Pairs: pairs, Workers: workers})
				if !bindingsEqual(got, want) {
					t.Fatalf("seed %d workers=%d on=%v: keyed join emits\n%v\nnested loop\n%v\nleft %v\nright %v",
						seed, workers, on, got, want, left, right)
				}

				l, _ = scans()
				leaf := &keyedScan{t: t, all: right, key: "b"}
				ctx := schedCtx()
				got = drainAll(t, ctx, &HashJoin{Left: l, Right: leaf, On: on, Pairs: pairs, Workers: workers,
					Bind: &Bind{Key: "a", MaxKeys: maxKeys, Ship: leaf.ship}})
				if !bindingsEqual(got, want) {
					t.Fatalf("seed %d workers=%d on=%v maxKeys=%d: bound join emits\n%v\nnested loop\n%v\nleft %v\nright %v",
						seed, workers, on, maxKeys, got, want, left, right)
				}
				snap := ctx.Snapshot()
				if !leaf.told || leaf.whole != wantWhole || (!wantWhole && leaf.keys != len(distinct)) ||
					snap.BindJoins+snap.BindFallbacks != 1 || (snap.BindFallbacks == 1) != wantWhole {
					t.Fatalf("seed %d workers=%d: leaf told=%v whole=%v keys=%d, stats %+v; want whole=%v keys=%d\nleft %v",
						seed, workers, leaf.told, leaf.whole, leaf.keys, snap, wantWhole, len(distinct), left)
				}
			}
		}
		switch {
		case !shippable:
			unshippable++
		case wantWhole:
			pastCap++
		case len(distinct) == 0:
			noKeys++
		default:
			bound++
		}
	}
	if matched < 300 {
		t.Fatalf("only %d matches over all seeds: the generator no longer exercises the key", matched)
	}
	if bound < 50 || noKeys < 5 || pastCap < 20 || unshippable < 50 {
		t.Fatalf("bind outcomes bound=%d noKeys=%d pastCap=%d unshippable=%d: the generator no longer exercises them all",
			bound, noKeys, pastCap, unshippable)
	}
}

// TestBindKeyTextFindsEveryPartner states what makes a bind join exact:
// whenever keyText ships a left key, the source's IN list on an indexed
// column finds every row whose cell, bound as the mediator binds it (its
// export text, NULL as ""), the join's own test (Compare == 0) matches
// to the key — so a keyed fetch can only drop rows that would not have
// joined. It holds on INT, FLOAT, VARCHAR, BOOL and DATE columns with
// NULL cells, the empty key included, which finds the NULLs. The kinds
// keyText refuses are the ones that break it: true equals the number 1,
// its text "true" does not.
func TestBindKeyTextFindsEveryPartner(t *testing.T) {
	db := rdb.NewDatabase("d")
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, i INT, f FLOAT, s VARCHAR, b BOOL, d DATE)`)
	cols := []string{"i", "f", "s", "b", "d"}
	for _, c := range cols {
		db.MustExec(`CREATE INDEX ON t (` + c + `)`)
	}
	db.MustExec(`INSERT INTO t VALUES (1, 7, 7, '7', TRUE, '2001-04-02'), (2, 1, 2.5, '007', FALSE, NULL),
		(3, 0, 'NaN', ' 12 ', NULL, '1999-12-31'), (4, NULL, NULL, '', TRUE, '2001-04-02'),
		(5, 12, 0.5, NULL, FALSE, NULL), (6, -3, 100000000000000000000, 'true', NULL, '2020-01-02 10:30:00'),
		(7, 1, -0.5, 'x', TRUE, '1999-12-31')`)
	all := db.MustExec(`SELECT * FROM t`)
	b := xmldm.NewBuilder()
	values := []xmldm.Value{
		xmldm.Null{}, xmldm.String(""), xmldm.String("7"), xmldm.String("007"), xmldm.String(" 12 "), xmldm.String("7.0"),
		xmldm.String("2.50"), xmldm.String("x"), xmldm.String("true"), xmldm.String("false"), xmldm.String("NaN"),
		xmldm.String("1"), xmldm.String("-3"), xmldm.String("1e+20"), xmldm.String("2001-04-02T00:00:00Z"),
		xmldm.String("2001-04-02"), xmldm.String("0.5"),
		xmldm.Int(7), xmldm.Int(1), xmldm.Int(0), xmldm.Float(2.5), xmldm.Float(7), xmldm.Bool(true), xmldm.Bool(false),
		xmldm.Date(time.Date(2001, 4, 2, 0, 0, 0, 0, time.UTC)), b.Elem("v", "7"), b.Elem("v", "x"), b.Elem("v"),
		b.Elem("v", b.Elem("w", "1"), "2"),
	}
	shipped, partners := 0, 0
	for _, v := range values {
		text, ok := keyText(v)
		switch v.(type) {
		case xmldm.String, *xmldm.Node:
			if !ok {
				t.Errorf("keyText(%v) ok = false, want its text shipped", v)
			}
		default:
			if ok {
				t.Errorf("keyText(%v) ships %q; only text is exact", v, text)
			}
		}
		if !ok {
			continue
		}
		shipped++
		for ci, col := range all.Columns[1:] {
			res := db.MustExec(`SELECT id FROM t WHERE ` + col + ` IN ('` + strings.ReplaceAll(text, "'", "''") + `')`)
			if !res.Stats.IndexUsed {
				t.Fatalf("%s IN (%q) was not answered by the index", col, text)
			}
			found := map[int64]bool{}
			for _, row := range res.Rows {
				found[int64(row[res.Pos(0)].(xmldm.Int))] = true
			}
			for _, row := range all.Rows {
				bound := all.Text(row, ci+1)
				if bound == nil {
					bound = xmldm.String("")
				}
				if xmldm.Compare(v, bound) != 0 {
					continue
				}
				partners++
				if id := int64(row[0].(xmldm.Int)); !found[id] {
					t.Errorf("left key %v joins row %d's %s (bound %q), but looking up %q does not find it", v, id, col, bound, text)
				}
			}
		}
	}
	if shipped < 15 || partners < 40 {
		t.Fatalf("only %d values shipped, %d partners checked", shipped, partners)
	}
}

// TestHashJoinErrorPositions: at every degree a failing build side
// surfaces on the first Next, and a left input that fails after k rows
// delivers every match of those k rows first — the serial position.
func TestHashJoinErrorPositions(t *testing.T) {
	lowerGates(t, 0)
	boom := errors.New("input boom")
	tuples := randTuples(60, 12)
	want := drainAll(t, &Context{}, &HashJoin{
		Left: &TupleScan{Tuples: tuples}, Right: &TupleScan{Tuples: tuples}, On: []string{"k"}})
	for _, workers := range []int{1, 2, 8} {
		j := &HashJoin{
			Left:    &errAfterScan{tuples: tuples, err: boom},
			Right:   &TupleScan{Tuples: tuples},
			On:      []string{"k"},
			Workers: workers,
		}
		if err := j.Open(schedCtx()); err != nil {
			t.Fatal(err)
		}
		var got []Binding
		var err error
		for {
			var b Binding
			if b, err = j.Next(); b == nil {
				break
			}
			got = append(got, b)
		}
		if !errors.Is(err, boom) || !bindingsEqual(got, want) {
			t.Errorf("workers=%d: left error: %d rows then %v, want all %d rows then %v", workers, len(got), err, len(want), boom)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		j = &HashJoin{
			Left:    &TupleScan{Tuples: tuples},
			Right:   &errAfterScan{tuples: tuples[:5], err: boom},
			Workers: workers,
		}
		if err := j.Open(schedCtx()); err != nil {
			t.Fatal(err)
		}
		if b, err := j.Next(); b != nil || !errors.Is(err, boom) {
			t.Errorf("workers=%d: build error: first Next = %v, %v", workers, b, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil { // a torn-down tree may be closed again
			t.Fatal(err)
		}
	}
}
