package algebra

import (
	"strings"
	"testing"

	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

func mustDoc(t testing.TB, s string) *xmldm.Node {
	t.Helper()
	n, err := xmlparse.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const bibXML = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><author>Suciu</author><price>39.95</price></book>
  <book year="1999"><title>Economics of Technology</title><author>Shapiro</author><price>129.95</price></book>
</bib>`

// patOf extracts the first pattern of a parsed query, for matcher tests.
func patOf(t testing.TB, q string) *xmlql.ElemPattern {
	t.Helper()
	return xmlql.MustParse(q).Where[0].(*xmlql.PatternCond).Pattern
}

func TestMatchPatternSimple(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book year=$y><title>$t</title></book> IN "b" CONSTRUCT <r/>`)
	ctx := &Context{}
	bs, err := MatchPattern(ctx, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("bindings = %d", len(bs))
	}
	y, _ := bs[0].Get("y")
	tt, _ := bs[0].Get("t")
	if xmldm.Stringify(y) != "1994" || xmldm.Stringify(tt) != "TCP/IP Illustrated" {
		t.Errorf("first binding = %v", bs[0])
	}
	if ctx.Snapshot().PatternMatches == 0 {
		t.Error("match counter not incremented")
	}
}

func TestMatchCartesianOverRepeatedChildren(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book><title>$t</title><author>$a</author></book> IN "b" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 3 + 1 author bindings across the three books.
	if len(bs) != 5 {
		t.Fatalf("bindings = %d, want 5", len(bs))
	}
}

func TestMatchRootElementItself(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <bib><book><title>$t</title></book></bib> IN "b" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("bindings = %d (pattern including the root must match)", len(bs))
	}
}

func TestMatchDescendant(t *testing.T) {
	doc := mustDoc(t, `<a><b><c><price>9</price></c></b><price>7</price></a>`)
	pat := patOf(t, `WHERE <a><//price>$p</></a> IN "s" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("descendant matches = %d", len(bs))
	}
}

func TestMatchTagVariableUnification(t *testing.T) {
	doc := mustDoc(t, `<r><x><k>1</k></x><y><k>2</k></y></r>`)
	pat := patOf(t, `WHERE <$t><k>$v</k></$t> IN "s" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	// Matches r? r has no <k> child... r's children are x,y. So x and y match.
	if len(bs) != 2 {
		t.Fatalf("bindings = %d", len(bs))
	}
	tags := map[string]bool{}
	for _, b := range bs {
		v, _ := b.Get("t")
		tags[xmldm.Stringify(v)] = true
	}
	if !tags["x"] || !tags["y"] {
		t.Errorf("tags = %v", tags)
	}
}

func TestMatchVariableJoinWithinPattern(t *testing.T) {
	// The same variable twice forces equality (XML-QL join semantics).
	doc := mustDoc(t, `<r>
		<pair><a>1</a><b>1</b></pair>
		<pair><a>1</a><b>2</b></pair>
	</r>`)
	pat := patOf(t, `WHERE <pair><a>$v</a><b>$v</b></pair> IN "s" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("unified bindings = %d, want 1", len(bs))
	}
}

func TestMatchAttributeLiteralAndMissing(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book year="2000"><title>$t</title></book> IN "b" CONSTRUCT <r/>`)
	bs, _ := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if len(bs) != 1 {
		t.Fatalf("literal attr matches = %d", len(bs))
	}
	pat = patOf(t, `WHERE <book isbn=$i><title>$t</title></book> IN "b" CONSTRUCT <r/>`)
	bs, _ = MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if len(bs) != 0 {
		t.Fatalf("missing attr must not match, got %d", len(bs))
	}
}

func TestMatchTextContent(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book><author>"Stevens"</author><title>$t</title></book> IN "b" CONSTRUCT <r/>`)
	bs, _ := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if len(bs) != 1 {
		t.Fatalf("text content matches = %d", len(bs))
	}
	tt, _ := bs[0].Get("t")
	if xmldm.Stringify(tt) != "TCP/IP Illustrated" {
		t.Errorf("title = %v", tt)
	}
}

func TestMatchElementAsAndContentAs(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book><title>$t</title></book> ELEMENT_AS $e CONTENT_AS $c IN "b" CONSTRUCT <r/>`)
	bs, _ := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if len(bs) != 3 {
		t.Fatalf("bindings = %d", len(bs))
	}
	e, _ := bs[0].Get("e")
	if n, ok := e.(*xmldm.Node); !ok || n.Name != "book" {
		t.Errorf("ELEMENT_AS = %v", e)
	}
	c, _ := bs[0].Get("c")
	if coll, ok := c.(*xmldm.Collection); !ok || coll.Len() != 3 {
		t.Errorf("CONTENT_AS = %v", c)
	}
}

func TestMatchTagAlternation(t *testing.T) {
	doc := mustDoc(t, `<bib>
		<book><author>Knuth</author></book>
		<book><editor>Gray</editor></book>
		<book><title>Untitled</title></book>
	</bib>`)
	pat := patOf(t, `WHERE <book><(author|editor)>$who</></book> IN "b" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("alternation matches = %d, want 2", len(bs))
	}
	got := map[string]bool{}
	for _, b := range bs {
		v, _ := b.Get("who")
		got[xmldm.Stringify(v)] = true
	}
	if !got["Knuth"] || !got["Gray"] {
		t.Errorf("matches = %v", got)
	}
}

func TestMatchDottedPath(t *testing.T) {
	doc := mustDoc(t, `<bib>
		<book><author><last>Knuth</last></author></book>
		<book><author><last>Gray</last></author></book>
		<journal><author><last>Codd</last></author></journal>
	</bib>`)
	pat := patOf(t, `WHERE <book.author.last>$l</> IN "b" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("path matches = %d, want 2 (journal excluded)", len(bs))
	}
}

func TestMatchWildcard(t *testing.T) {
	doc := mustDoc(t, `<r><a>1</a><b>2</b></r>`)
	pat := patOf(t, `WHERE <r><*>$v</></r> IN "s" CONSTRUCT <r/>`)
	bs, _ := MatchPattern(&Context{}, doc, pat, xmldm.NewTuple())
	if len(bs) != 2 {
		t.Fatalf("wildcard matches = %d", len(bs))
	}
}

func scanOf(bs ...Binding) *TupleScan { return &TupleScan{Tuples: bs} }

func bind(kv ...any) Binding {
	t := xmldm.NewTuple()
	for i := 0; i < len(kv); i += 2 {
		t = t.With(kv[i].(string), kv[i+1].(xmldm.Value))
	}
	return t
}

func TestSelectOperator(t *testing.T) {
	in := scanOf(
		bind("x", xmldm.Int(1)),
		bind("x", xmldm.Int(5)),
		bind("x", xmldm.Int(10)),
	)
	pred := xmlql.MustParse(`WHERE <a>$x</a> IN "s", $x >= 5 CONSTRUCT <r/>`).Where[1].(*xmlql.PredicateCond).Expr
	out, err := Drain(&Context{}, &Select{Input: in, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("selected = %d", len(out))
	}
}

func TestHashJoinOnSharedVars(t *testing.T) {
	left := scanOf(
		bind("id", xmldm.Int(1), "name", xmldm.String("Ada")),
		bind("id", xmldm.Int(2), "name", xmldm.String("Alan")),
	)
	right := scanOf(
		bind("id", xmldm.Int(1), "total", xmldm.Float(250)),
		bind("id", xmldm.Int(1), "total", xmldm.Float(75)),
		bind("id", xmldm.Int(3), "total", xmldm.Float(99)),
	)
	out, err := Drain(&Context{}, &HashJoin{Left: left, Right: right})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("joined = %d", len(out))
	}
	for _, b := range out {
		n, _ := b.Get("name")
		if xmldm.Stringify(n) != "Ada" {
			t.Errorf("unexpected join row %v", b)
		}
	}
}

func TestHashJoinCartesianWhenNoSharedVars(t *testing.T) {
	left := scanOf(bind("a", xmldm.Int(1)), bind("a", xmldm.Int(2)))
	right := scanOf(bind("b", xmldm.Int(10)), bind("b", xmldm.Int(20)))
	out, err := Drain(&Context{}, &HashJoin{Left: left, Right: right})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("cartesian = %d", len(out))
	}
}

func TestHashJoinExplicitVars(t *testing.T) {
	left := scanOf(bind("k", xmldm.Int(1), "other", xmldm.Int(9)))
	right := scanOf(bind("k", xmldm.Int(1), "other", xmldm.Int(8)))
	// Joining only on k: the conflicting "other" values must reject the
	// merge (natural-join soundness).
	out, err := Drain(&Context{}, &HashJoin{Left: left, Right: right, On: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("conflicting merge should drop, got %d", len(out))
	}
}

func TestMatchOperatorWithFixedRoots(t *testing.T) {
	doc := mustDoc(t, bibXML)
	pat := patOf(t, `WHERE <book><title>$t</title></book> IN "b" CONSTRUCT <r/>`)
	m := &Match{
		Input:   &Singleton{},
		Pattern: pat,
		Roots:   func(*Context) ([]xmldm.Value, error) { return []xmldm.Value{doc}, nil },
	}
	out, err := Drain(&Context{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("matches = %d", len(out))
	}
}

func TestMatchOperatorWithSourceVar(t *testing.T) {
	doc := mustDoc(t, bibXML)
	outer := patOf(t, `WHERE <book>$x</book> ELEMENT_AS $e IN "b" CONSTRUCT <r/>`)
	// First match books binding $e, then match authors within $e.
	m1 := &Match{
		Input:   &Singleton{},
		Pattern: &xmlql.ElemPattern{Tag: outer.Tag, ElementAs: "e"},
		Roots:   func(*Context) ([]xmldm.Value, error) { return []xmldm.Value{doc}, nil },
	}
	inner := patOf(t, `WHERE <author>$a</author> IN $e CONSTRUCT <r/>`)
	m2 := &Match{Input: m1, Pattern: inner, SourceVar: "e"}
	out, err := Drain(&Context{}, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("authors = %d, want 5", len(out))
	}
}

func TestEvalExpressions(t *testing.T) {
	b := bind("x", xmldm.Int(7), "s", xmldm.String("Hello World"))
	ctx := &Context{}
	cases := []struct {
		src  string
		want string
	}{
		{`$x + 3`, "10"},
		{`$x - 3`, "4"},
		{`$x * 2`, "14"},
		{`$x / 2`, "3.5"},
		{`$x > 5`, "true"},
		{`$x > 5 AND $x < 10`, "true"},
		{`$x < 5 OR $x = 7`, "true"},
		{`contains($s, "World")`, "true"},
		{`startswith($s, "Hello")`, "true"},
		{`endswith($s, "ld")`, "true"},
		{`lower($s)`, "hello world"},
		{`upper("ab")`, "AB"},
		{`strlen($s)`, "11"},
		{`concat($s, "!")`, "Hello World!"},
		{`substr($s, 7)`, "World"},
		{`substr($s, 1, 5)`, "Hello"},
		{`not($x = 7)`, "false"},
		{`number("2.5")`, "2.5"},
		{`string($x)`, "7"},
		{`exists($x)`, "true"},
		{`exists($nope)`, "false"},
		{`trim("  a ")`, "a"},
		{`$s + "!"`, "Hello World!"},
	}
	for _, c := range cases {
		q := xmlql.MustParse(`WHERE <a>$q</a> IN "s", ` + c.src + ` CONSTRUCT <r/>`)
		e := q.Where[1].(*xmlql.PredicateCond).Expr
		v, err := Eval(ctx, e, b)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := xmldm.Stringify(v); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestEvalNavigationFunctions(t *testing.T) {
	doc := mustDoc(t, `<r><a>1</a><b>2</b><c>3</c></r>`)
	a := doc.ChildElements()[0]
	ctx := &Context{}
	b := bind("e", a)
	cases := []struct {
		src, want string
	}{
		{`name($e)`, "a"},
		{`name(parent($e))`, "r"},
		{`string(siblings($e))`, "23"},
		{`name(root($e))`, "r"},
		{`parent($notbound)`, ""},   // Null stringifies empty
		{`siblings($notbound)`, ""}, // Null
	}
	for _, c := range cases {
		q := xmlql.MustParse(`WHERE <x>$q</x> IN "s", ` + c.src + ` = "zz" CONSTRUCT <r/>`)
		e := q.Where[1].(*xmlql.PredicateCond).Expr.(*xmlql.BinExpr).L
		v, err := Eval(ctx, e, b)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := xmldm.Stringify(v); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
	// Root of the root is itself.
	q := xmlql.MustParse(`WHERE <x>$q</x> IN "s", name(root($e)) = "r" CONSTRUCT <r/>`)
	v, err := Eval(ctx, q.Where[1].(*xmlql.PredicateCond).Expr, bind("e", doc))
	if err != nil || !xmldm.Truthy(v) {
		t.Errorf("root of root: %v, %v", v, err)
	}
	// A root element has no siblings: an empty collection. Text between
	// siblings is not one, and a text value is not a node: Null.
	mixed := mustDoc(t, `<r><a>1</a>x<b>2</b>y<c>3</c></r>`)
	for _, c := range []struct {
		e    xmldm.Value
		kind xmldm.Kind
		want string
	}{
		{doc, xmldm.KindCollection, ""},
		{mixed.ChildElements()[0], xmldm.KindCollection, "23"},
		{mixed.Children[1], xmldm.KindNull, ""},
	} {
		q := xmlql.MustParse(`WHERE <x>$q</x> IN "s", siblings($e) = "zz" CONSTRUCT <r/>`)
		v, err := Eval(ctx, q.Where[1].(*xmlql.PredicateCond).Expr.(*xmlql.BinExpr).L, bind("e", c.e))
		if err != nil || v.Kind() != c.kind || xmldm.Stringify(v) != c.want {
			t.Errorf("siblings(%v) = %v (%v), %v; want a %v of %q", c.e, v, v.Kind(), err, c.kind, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := &Context{}
	b := bind("s", xmldm.String("abc"))
	bad := []string{
		`$s * 2`,
		`1 / 0`,
		`nosuchfunc($s)`,
		`substr($s, "x")`,
		`contains($s)`,
	}
	for _, src := range bad {
		q := xmlql.MustParse(`WHERE <a>$q</a> IN "s", ` + src + ` CONSTRUCT <r/>`)
		e := q.Where[1].(*xmlql.PredicateCond).Expr
		if _, err := Eval(ctx, e, b); err == nil {
			t.Errorf("Eval(%s) should fail", src)
		}
	}
}

func TestEvalCustomFunc(t *testing.T) {
	ctx := &Context{Funcs: map[string]func([]xmldm.Value) (xmldm.Value, error){
		"double": func(args []xmldm.Value) (xmldm.Value, error) {
			f, _ := xmldm.ToFloat(args[0])
			return xmldm.Float(2 * f), nil
		},
	}}
	q := xmlql.MustParse(`WHERE <a>$x</a> IN "s", double($x) = 8 CONSTRUCT <r/>`)
	e := q.Where[1].(*xmlql.PredicateCond).Expr
	v, err := Eval(ctx, e, bind("x", xmldm.Int(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !xmldm.Truthy(v) {
		t.Error("custom function not applied")
	}
}

func TestEvalNullComparisons(t *testing.T) {
	ctx := &Context{}
	q := xmlql.MustParse(`WHERE <a>$x</a> IN "s", $missing = 1 CONSTRUCT <r/>`)
	e := q.Where[1].(*xmlql.PredicateCond).Expr
	v, err := Eval(ctx, e, bind())
	if err != nil {
		t.Fatal(err)
	}
	if xmldm.Truthy(v) {
		t.Error("comparison with unbound variable must be false")
	}
}

func TestConstructSimple(t *testing.T) {
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s"
		CONSTRUCT <result id=$x><name>$n</name>"lit"</result>`).Construct
	b := bind("x", xmldm.Int(7), "n", xmldm.String("Ada"))
	n, err := BuildResult(&Context{}, tmpl, b)
	if err != nil {
		t.Fatal(err)
	}
	s := n.String()
	if s != `<result id="7"><name>Ada</name>lit</result>` {
		t.Errorf("constructed = %s", s)
	}
	if n.Ord != 1 {
		t.Error("constructed tree not finalized")
	}
}

func TestConstructSplicesNodeCopies(t *testing.T) {
	doc := mustDoc(t, `<book><title>T</title></book>`)
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s" CONSTRUCT <out>$e</out>`).Construct
	b := bind("e", doc)
	n, err := BuildResult(&Context{}, tmpl, b)
	if err != nil {
		t.Fatal(err)
	}
	emb := n.Child("book")
	if emb == nil {
		t.Fatal("node not spliced")
	}
	if emb == doc {
		t.Error("spliced node must be a copy, not the source node")
	}
	if doc.Parent != nil {
		t.Error("source document mutated")
	}
	if emb.Parent != n {
		t.Error("copy must be parented into the result")
	}
}

func TestConstructCollectionAndNullSplicing(t *testing.T) {
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s" CONSTRUCT <out>$c$z</out>`).Construct
	b := bind("c", xmldm.NewCollection(xmldm.String("a"), xmldm.Int(1)), "z", xmldm.Null{})
	n, err := BuildResult(&Context{}, tmpl, b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Text() != "a1" {
		t.Errorf("text = %q", n.Text())
	}
}

func TestConstructTagVariable(t *testing.T) {
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s" CONSTRUCT <$t>"x"</>`).Construct
	n, err := BuildResult(&Context{}, tmpl, bind("t", xmldm.String("mytag")))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "mytag" {
		t.Errorf("tag = %q", n.Name)
	}
	// Unbound tag variable is an error.
	if _, err := BuildResult(&Context{}, tmpl, bind()); err == nil {
		t.Error("unbound tag variable should fail")
	}
}

func TestConstructNestedQueryNeedsEvaluator(t *testing.T) {
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s"
		CONSTRUCT <out>{ WHERE <b>$y</b> IN $q CONSTRUCT <c>$y</c> }</out>`).Construct
	if _, err := BuildResult(&Context{}, tmpl, bind()); err == nil {
		t.Error("nested query without evaluator should fail")
	}
	ctx := &Context{SubqueryEval: func(q *xmlql.Query, outer Binding) ([]xmldm.Value, error) {
		return []xmldm.Value{xmldm.String("sub")}, nil
	}}
	n, err := BuildResult(ctx, tmpl, bind())
	if err != nil {
		t.Fatal(err)
	}
	if n.Text() != "sub" {
		t.Errorf("nested content = %q", n.Text())
	}
}

func TestAggEvaluation(t *testing.T) {
	ctx := &Context{SubqueryEval: func(q *xmlql.Query, outer Binding) ([]xmldm.Value, error) {
		return []xmldm.Value{xmldm.Int(2), xmldm.Int(4), xmldm.Int(6)}, nil
	}}
	cases := []struct {
		op   string
		want string
	}{
		{"count", "3"}, {"sum", "12"}, {"avg", "4"}, {"min", "2"}, {"max", "6"},
	}
	for _, c := range cases {
		q := xmlql.MustParse(`WHERE <a>$x</a> IN "s", ` + c.op + `({WHERE <b>$y</b> IN $x CONSTRUCT <v>$y</v>}) = ` + c.want + ` CONSTRUCT <r/>`)
		e := q.Where[1].(*xmlql.PredicateCond).Expr
		v, err := Eval(ctx, e, bind("x", xmldm.String("ignored")))
		if err != nil {
			t.Errorf("%s: %v", c.op, err)
			continue
		}
		if !xmldm.Truthy(v) {
			t.Errorf("%s over [2,4,6] != %s", c.op, c.want)
		}
	}
}

func TestOperatorsNotOpen(t *testing.T) {
	ops := []Operator{
		&TupleScan{},
		&Select{Input: scanOf()},
		&HashJoin{Left: scanOf(), Right: scanOf()},
		&Match{Input: scanOf()},
		&Singleton{},
		&FuncScan{OpenFn: func(*Context) (func() (Binding, error), error) {
			return func() (Binding, error) { return nil, nil }, nil
		}},
	}
	for _, op := range ops {
		if _, err := op.Next(); err == nil {
			t.Errorf("%T.Next before Open should fail", op)
		}
	}
}

func TestOperatorsReusableAfterClose(t *testing.T) {
	// A join holds the most state between Open and Close: its table, held
	// left rows and pending matches must all start over.
	in := scanOf(bind("x", xmldm.Int(1)), bind("x", xmldm.Int(2)))
	op := &HashJoin{Left: in, Right: scanOf(bind("y", xmldm.Int(3)))}
	for round := 0; round < 2; round++ {
		out, err := Drain(&Context{}, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatalf("round %d: out = %d", round, len(out))
		}
	}
}

func TestCopyNodeDeep(t *testing.T) {
	doc := mustDoc(t, `<a k="v"><b>text</b></a>`)
	c := CopyNode(doc)
	if c == doc || c.Child("b") == doc.Child("b") {
		t.Error("copy must be deep")
	}
	if c.String() != doc.String() {
		t.Errorf("copy differs: %s vs %s", c.String(), doc.String())
	}
	c.Child("b").Children[0] = xmldm.String("changed")
	if doc.Child("b").Text() != "text" {
		t.Error("mutating the copy leaked into the original")
	}
}

// TestCopyNodeSlabsDoNotAlias checks the slab-carved copy behaves like
// separately allocated nodes: appending to one node's attributes or
// children must not overwrite the next node's.
func TestCopyNodeSlabsDoNotAlias(t *testing.T) {
	doc := mustDoc(t, `<a k="v"><b x="1">one</b><c y="2">two<d/></c></a>`)
	c := CopyNode(doc)
	b := c.Child("b")
	if b.Parent != c || c.Child("c").Child("d").Parent != c.Child("c") || c.Parent != nil {
		t.Error("copy has wrong parent links")
	}
	c.Attrs = append(c.Attrs, xmldm.Attr{Name: "extra", Value: "!"})
	b.Attrs = append(b.Attrs, xmldm.Attr{Name: "extra", Value: "!"})
	b.Children = append(b.Children, xmldm.String("!"))
	c.Children = append(c.Children, &xmldm.Node{Name: "extra"})
	want := `<a k="v" extra="!"><b x="1" extra="!">one!</b><c y="2">two<d/></c><extra/></a>`
	if c.String() != want {
		t.Errorf("after appends the copy reads %s, want %s", c.String(), want)
	}
	if doc.String() != `<a k="v"><b x="1">one</b><c y="2">two<d/></c></a>` {
		t.Errorf("the original changed: %s", doc.String())
	}
}

func TestStatsCounters(t *testing.T) {
	ctx := &Context{}
	ctx.AddTuples(3)
	ctx.AddMatches(2)
	s := ctx.Snapshot()
	if s.TuplesEmitted != 3 || s.PatternMatches != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFuncScan(t *testing.T) {
	i := 0
	closed := false
	fs := &FuncScan{
		OpenFn: func(*Context) (func() (Binding, error), error) {
			i = 0
			return func() (Binding, error) {
				if i >= 3 {
					return nil, nil
				}
				i++
				return bind("n", xmldm.Int(int64(i))), nil
			}, nil
		},
		CloseFn: func() error { closed = true; return nil },
	}
	ctx := &Context{}
	out, err := Drain(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %d", len(out))
	}
	if !closed {
		t.Error("CloseFn not called")
	}
	if ctx.Snapshot().TuplesEmitted != 3 {
		t.Errorf("tuples counter = %d", ctx.Snapshot().TuplesEmitted)
	}
}

func TestMatchPatternNilRoot(t *testing.T) {
	pat := patOf(t, `WHERE <a>$x</a> IN "s" CONSTRUCT <r/>`)
	bs, err := MatchPattern(&Context{}, nil, pat, xmldm.NewTuple())
	if err != nil || bs != nil {
		t.Errorf("nil root: %v, %v", bs, err)
	}
}

func TestConstructAllOrder(t *testing.T) {
	tmpl := xmlql.MustParse(`WHERE <a>$x</a> IN "s" CONSTRUCT <v>$x</v>`).Construct
	bs := []Binding{bind("x", xmldm.Int(1)), bind("x", xmldm.Int(2))}
	bld := CompileProgram(tmpl, 0).Builder(len(bs))
	var sb strings.Builder
	for _, b := range bs {
		n, err := bld.Build(&Context{}, b)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(xmldm.Stringify(n))
	}
	if sb.String() != "12" {
		t.Errorf("order = %q", sb.String())
	}
}
