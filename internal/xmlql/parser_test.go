package xmlql

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBasicQuery(t *testing.T) {
	q, err := Parse(`
		WHERE <book year=$y>
		        <title>$t</title>
		      </book> IN "bib",
		      $y > 1995
		CONSTRUCT <result><title>$t</title></result>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("conditions = %d", len(q.Where))
	}
	pc, ok := q.Where[0].(*PatternCond)
	if !ok {
		t.Fatalf("first condition = %T", q.Where[0])
	}
	if pc.Source.Name != "bib" {
		t.Errorf("source = %v", pc.Source)
	}
	if pc.Pattern.Tag.Name != "book" {
		t.Errorf("tag = %v", pc.Pattern.Tag)
	}
	if len(pc.Pattern.Attrs) != 1 || pc.Pattern.Attrs[0].Var != "y" {
		t.Errorf("attrs = %v", pc.Pattern.Attrs)
	}
	if !reflect.DeepEqual(pc.Pattern.Vars(), []string{"y", "t"}) {
		t.Errorf("vars = %v", pc.Pattern.Vars())
	}
	pred, ok := q.Where[1].(*PredicateCond)
	if !ok {
		t.Fatalf("second condition = %T", q.Where[1])
	}
	bin, ok := pred.Expr.(*BinExpr)
	if !ok || bin.Op != ">" {
		t.Errorf("predicate = %v", ExprString(pred.Expr))
	}
	if q.Construct.Tag != "result" {
		t.Errorf("construct tag = %q", q.Construct.Tag)
	}
}

func TestParseShorthandClose(t *testing.T) {
	q, err := Parse(`WHERE <a><b>$x</></> IN "s" CONSTRUCT <r>$x</>`)
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Where[0].(*PatternCond).Pattern
	child := pat.Content[0].(*ChildPattern).Elem
	if child.Tag.Name != "b" {
		t.Errorf("child = %v", child.Tag)
	}
}

func TestParseSelfClosingPattern(t *testing.T) {
	q, err := Parse(`WHERE <flag/> IN "s" CONSTRUCT <r/>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where[0].(*PatternCond).Pattern.Content) != 0 {
		t.Error("self-closing pattern should have no content")
	}
	if len(q.Construct.Content) != 0 {
		t.Error("self-closing template should have no content")
	}
}

func TestParseElementAsAndContentAs(t *testing.T) {
	q, err := Parse(`WHERE <book>$x</book> ELEMENT_AS $e CONTENT_AS $c IN "bib" CONSTRUCT <r>$e</r>`)
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Where[0].(*PatternCond).Pattern
	if pat.ElementAs != "e" || pat.ContentAs != "c" {
		t.Errorf("bindings = %q, %q", pat.ElementAs, pat.ContentAs)
	}
	if !reflect.DeepEqual(pat.Vars(), []string{"e", "c", "x"}) {
		t.Errorf("vars = %v", pat.Vars())
	}
}

func TestParseTagVariableAndWildcard(t *testing.T) {
	q, err := Parse(`WHERE <$t><*>$v</></> IN "s" CONSTRUCT <$t>$v</>`)
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Where[0].(*PatternCond).Pattern
	if pat.Tag.Var != "t" {
		t.Errorf("tag var = %v", pat.Tag)
	}
	child := pat.Content[0].(*ChildPattern).Elem
	if !child.Tag.Wild {
		t.Errorf("wildcard = %v", child.Tag)
	}
	if q.Construct.TagVar != "t" {
		t.Errorf("template tag var = %q", q.Construct.TagVar)
	}
}

func TestParseDescendantTag(t *testing.T) {
	q, err := Parse(`WHERE <//price>$p</> IN "s" CONSTRUCT <r>$p</>`)
	if err != nil {
		t.Fatal(err)
	}
	tag := q.Where[0].(*PatternCond).Pattern.Tag
	if !tag.Descendant || tag.Name != "price" {
		t.Errorf("tag = %+v", tag)
	}
}

func TestParseTagAlternation(t *testing.T) {
	q, err := Parse(`WHERE <(author|editor)>$a</> IN "bib" CONSTRUCT <r>$a</r>`)
	if err != nil {
		t.Fatal(err)
	}
	tag := q.Where[0].(*PatternCond).Pattern.Tag
	if len(tag.Alts) != 2 || tag.Alts[0] != "author" || tag.Alts[1] != "editor" {
		t.Fatalf("alts = %v", tag.Alts)
	}
	if !tag.Matches("editor") || tag.Matches("title") {
		t.Error("Matches over alternation wrong")
	}
	// Explicit closing group accepted.
	if _, err := Parse(`WHERE <(a|b)>$v</(a|b)> IN "s" CONSTRUCT <r/>`); err != nil {
		t.Errorf("closing group: %v", err)
	}
	// Canonical form round-trips.
	canon := q.String()
	if !strings.Contains(canon, "(author|editor)") {
		t.Errorf("canonical = %s", canon)
	}
	if _, err := Parse(canon); err != nil {
		t.Errorf("reparse: %v", err)
	}
	// Descendant alternation.
	q2 := MustParse(`WHERE <//(a|b)>$v</> IN "s" CONSTRUCT <r/>`)
	tag2 := q2.Where[0].(*PatternCond).Pattern.Tag
	if !tag2.Descendant || len(tag2.Alts) != 2 {
		t.Errorf("descendant alternation: %+v", tag2)
	}
	// Errors.
	for _, bad := range []string{
		`WHERE <(a|)>$v</> IN "s" CONSTRUCT <r/>`,
		`WHERE <(a|1)>$v</> IN "s" CONSTRUCT <r/>`,
		`WHERE <(a b)>$v</> IN "s" CONSTRUCT <r/>`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseDottedPath(t *testing.T) {
	q, err := Parse(`WHERE <book.author.last>$l</book.author.last> IN "bib" CONSTRUCT <r>$l</r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Desugars to nested child patterns: book > author > last.
	outer := q.Where[0].(*PatternCond).Pattern
	if outer.Tag.Name != "book" {
		t.Fatalf("outer = %v", outer.Tag)
	}
	mid := outer.Content[0].(*ChildPattern).Elem
	if mid.Tag.Name != "author" {
		t.Fatalf("mid = %v", mid.Tag)
	}
	inner := mid.Content[0].(*ChildPattern).Elem
	if inner.Tag.Name != "last" {
		t.Fatalf("inner = %v", inner.Tag)
	}
	if _, ok := inner.Content[0].(*VarContent); !ok {
		t.Error("content should attach to the innermost element")
	}
	// ELEMENT_AS binds the innermost element.
	q2 := MustParse(`WHERE <a.b>$v</> ELEMENT_AS $e IN "s" CONSTRUCT <r>$e</r>`)
	outer2 := q2.Where[0].(*PatternCond).Pattern
	if outer2.ElementAs != "" || outer2.Content[0].(*ChildPattern).Elem.ElementAs != "e" {
		t.Error("ELEMENT_AS should attach to the innermost element")
	}
	// Descendant flag lands on the outermost segment.
	q3 := MustParse(`WHERE <//a.b>$v</> IN "s" CONSTRUCT <r/>`)
	o3 := q3.Where[0].(*PatternCond).Pattern
	if !o3.Tag.Descendant || o3.Tag.Name != "a" {
		t.Errorf("descendant path: %+v", o3.Tag)
	}
	if o3.Content[0].(*ChildPattern).Elem.Tag.Descendant {
		t.Error("inner segment must be a plain child step")
	}
}

func TestParseSourceVariants(t *testing.T) {
	q, err := Parse(`WHERE <a>$x</> IN customers, <b>$y</> IN $x CONSTRUCT <r>$y</>`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].(*PatternCond).Source.Name != "customers" {
		t.Errorf("bare identifier source: %v", q.Where[0].(*PatternCond).Source)
	}
	if q.Where[1].(*PatternCond).Source.Var != "x" {
		t.Errorf("variable source: %v", q.Where[1].(*PatternCond).Source)
	}
}

func TestParseNestedQueryInTemplate(t *testing.T) {
	q, err := Parse(`
		WHERE <person> <name>$n</name> </person> ELEMENT_AS $p IN "people"
		CONSTRUCT <person>
		    <name>$n</name>
		    { WHERE <phone>$ph</phone> IN $p
		      CONSTRUCT <tel>$ph</tel> }
		</person>`)
	if err != nil {
		t.Fatal(err)
	}
	var sub *Query
	for _, c := range q.Construct.Content {
		if tq, ok := c.(*TmplQuery); ok {
			sub = tq.Query
		}
	}
	if sub == nil {
		t.Fatal("nested query not parsed")
	}
	if sub.Where[0].(*PatternCond).Source.Var != "p" {
		t.Errorf("nested source = %v", sub.Where[0].(*PatternCond).Source)
	}
}

func TestParseBareNestedQuery(t *testing.T) {
	// A nested query may appear without braces, as in the XML-QL note.
	q, err := Parse(`
		WHERE <dept><dname>$d</dname></dept> ELEMENT_AS $e IN "org"
		CONSTRUCT <dept> <dname>$d</dname>
			WHERE <emp>$n</emp> IN $e CONSTRUCT <employee>$n</employee>
		</dept>`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range q.Construct.Content {
		if _, ok := c.(*TmplQuery); ok {
			found = true
		}
	}
	if !found {
		t.Error("bare nested query not parsed")
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse(`
		WHERE <dept><dname>$d</dname></dept> ELEMENT_AS $e IN "org"
		CONSTRUCT <summary dept=$d>
			<headcount>{ count({ WHERE <emp>$n</emp> IN $e CONSTRUCT <e>$n</e> }) }</headcount>
		</summary>`)
	if err != nil {
		t.Fatal(err)
	}
	hc := q.Construct.Content[0].(*TmplChild).Elem
	agg, ok := hc.Content[0].(*TmplExpr).Expr.(*AggExpr)
	if !ok || agg.Op != "count" {
		t.Fatalf("aggregate = %#v", hc.Content[0])
	}
}

func TestParseOrderBy(t *testing.T) {
	q, err := Parse(`WHERE <a><p>$p</p><n>$n</n></a> IN "s"
		CONSTRUCT <r>$n</r> ORDER-BY $p DESCENDING, $n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OrderBy) != 2 {
		t.Fatalf("order keys = %d", len(q.OrderBy))
	}
	if !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("desc flags = %v, %v", q.OrderBy[0].Desc, q.OrderBy[1].Desc)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical ExprString
	}{
		{`$x + 2 * $y`, `($x + (2 * $y))`},
		{`($x + 2) * $y`, `(($x + 2) * $y)`},
		{`$x >= 10 AND $y != "a"`, `(($x >= 10) AND ($y != "a"))`},
		{`$a = $b OR $c < 5`, `(($a = $b) OR ($c < 5))`},
		{`contains($n, "inc")`, `contains($n, "inc")`},
		{`-5 + $x`, `(-5 + $x)`},
		{`$x - 3`, `($x - 3)`},
		{`2.5 / $d`, `(2.5 / $d)`},
		{`TRUE`, `TRUE`},
		{`not(FALSE)`, `not(FALSE)`},
	}
	for _, c := range cases {
		q, err := Parse(`WHERE <a>$x</a> IN "s", ` + c.src + ` CONSTRUCT <r/>`)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		got := ExprString(q.Where[1].(*PredicateCond).Expr)
		if got != c.want {
			t.Errorf("expr %q parsed as %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseTextContentMatch(t *testing.T) {
	q, err := Parse(`WHERE <status>"active"</status> IN "s" CONSTRUCT <r/>`)
	if err != nil {
		t.Fatal(err)
	}
	tc := q.Where[0].(*PatternCond).Pattern.Content[0].(*TextContent)
	if tc.Text != "active" {
		t.Errorf("text match = %q", tc.Text)
	}
}

func TestParseAttributeLiteralMatch(t *testing.T) {
	q, err := Parse(`WHERE <book lang="en" edition=3>$t</book> IN "s" CONSTRUCT <r>$t</r>`)
	if err != nil {
		t.Fatal(err)
	}
	attrs := q.Where[0].(*PatternCond).Pattern.Attrs
	if attrs[0].Lit != "en" || attrs[1].Lit != "3" {
		t.Errorf("attrs = %+v", attrs)
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse(`
		# find books
		WHERE <book>$t</book> IN "bib" # the bibliography
		CONSTRUCT <r>$t</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Construct.Tag != "r" {
		t.Error("comment handling broke the parse")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`CONSTRUCT <r/>`,                        // missing WHERE
		`WHERE <a>$x</a> IN "s"`,                // missing CONSTRUCT
		`WHERE <a>$x</b> IN "s" CONSTRUCT <r/>`, // mismatched tags
		`WHERE <a>$x</a> CONSTRUCT <r/>`,        // missing IN
		`WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</q>`,     // mismatched template close
		`WHERE <a attr=>$x</a> IN "s" CONSTRUCT <r/>`,    // bad attribute
		`WHERE <a>$x</a> IN "s", CONSTRUCT <r/>`,         // trailing comma
		`WHERE <a>$x</a> IN "s" CONSTRUCT <r/> trailing`, // trailing junk
		`WHERE <a>$x</a> IN "s" CONSTRUCT <r>{$x</r>`,    // unclosed brace
		`WHERE <a>$x</a> IN "s" CONSTRUCT <r>"abc</r>`,   // unterminated string
		`WHERE <a>$</a> IN "s" CONSTRUCT <r/>`,           // $ without name
		`WHERE <a>$x!</a> IN "s" CONSTRUCT <r/>`,         // stray !
		`WHERE <a>$x</a> IN 5 CONSTRUCT <r/>`,            // numeric source
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	queries := []string{
		`WHERE <book year=$y><title>$t</title></book> IN "bib", $y > 1995
		 CONSTRUCT <result><title>$t</title></result>`,
		`WHERE <//item>$v</> IN "cat" CONSTRUCT <out val=$v/> ORDER-BY $v DESCENDING`,
		`WHERE <p><name>$n</name></p> ELEMENT_AS $e IN "people"
		 CONSTRUCT <q>$n { WHERE <ph>$f</ph> IN $e CONSTRUCT <t>$f</t> }</q>`,
		`WHERE <a>$x</a> IN "s", contains($x, "z") OR $x < 3
		 CONSTRUCT <r cnt="yes">{ $x + 1 }</r>`,
		`WHERE <$t k="v">$c</> IN "s" CONSTRUCT <$t>"lit"</>`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		canon := q1.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse canonical form: %v\n%s", err, canon)
		}
		if q2.String() != canon {
			t.Errorf("canonical form not a fixed point:\n%s\nvs\n%s", canon, q2.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a query")
}

func TestExprVars(t *testing.T) {
	q := MustParse(`WHERE <a><x>$x</x><y>$y</y></a> IN "s", $x + $y > lower($x)
		CONSTRUCT <r/>`)
	e := q.Where[1].(*PredicateCond).Expr
	got := ExprVars(e)
	if !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("ExprVars = %v", got)
	}
}

// TestExprVarsReportsAggregateCorrelations: an aggregate's subquery may
// correlate on any variable it mentions — in a pattern, an IN clause, a
// predicate, its CONSTRUCT or a nested aggregate — so all are reported.
func TestExprVarsReportsAggregateCorrelations(t *testing.T) {
	q := MustParse(`WHERE <a>$x</a> IN "s",
		count({ WHERE <o><cust>$i</cust></o> ELEMENT_AS $e IN "t", <l>$m</l> IN $e, $q > $r,
		        sum({ WHERE <p>$z</p> IN "u" CONSTRUCT <v>$y</v> }) > 1
		        CONSTRUCT <c k=$k>$w</c> }) < $x
		CONSTRUCT <r/>`)
	got := ExprVars(q.Where[1].(*PredicateCond).Expr)
	want := []string{"e", "i", "m", "q", "r", "z", "y", "k", "w", "x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExprVars = %v, want %v", got, want)
	}
}

func TestParseOnUnavailablePrelude(t *testing.T) {
	q, err := Parse(`ON-UNAVAILABLE FAIL WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if q.OnUnavailable != "fail" {
		t.Errorf("OnUnavailable = %q", q.OnUnavailable)
	}
	q = MustParse(`on-unavailable partial WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>`)
	if q.OnUnavailable != "partial" {
		t.Errorf("OnUnavailable = %q", q.OnUnavailable)
	}
	// Round-trips through the canonical printer.
	q2, err := Parse(q.String())
	if err != nil || q2.OnUnavailable != "partial" {
		t.Errorf("round trip: %v, %q", err, q2.OnUnavailable)
	}
	if _, err := Parse(`ON-UNAVAILABLE WHENEVER WHERE <a>$x</a> IN "s" CONSTRUCT <r/>`); err == nil {
		t.Error("bad prelude should fail")
	}
}

func TestParseKeywordsCaseInsensitive(t *testing.T) {
	q, err := Parse(`where <a>$x</a> in "s" construct <r>$x</r> order-by $x desc`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Errorf("lower-case keywords: %+v", q.OrderBy)
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex(`<a b=$c> "s" 1.5 -2 </> /> // { } ( ) , = != <= >= + - * / .`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
	joined := ""
	for _, tk := range toks {
		joined += tk.text + " "
	}
	// "-2" follows the number 1.5, so the '-' lexes as a binary operator;
	// a leading "-2" in expression position lexes as one negative number.
	if !strings.Contains(joined, "1.5") || !strings.Contains(joined, "- 2") {
		t.Errorf("numbers mis-lexed: %s", joined)
	}
	neg, err := lex(`(-2)`)
	if err != nil {
		t.Fatal(err)
	}
	if neg[1].kind != tokNumber || neg[1].text != "-2" {
		t.Errorf("leading -2 should lex as a negative number, got %v %q", neg[1].kind, neg[1].text)
	}
}

func TestSourceRefString(t *testing.T) {
	if (SourceRef{Name: "s"}).String() != `"s"` {
		t.Error("named source ref")
	}
	if (SourceRef{Var: "v"}).String() != "$v" {
		t.Error("variable source ref")
	}
}
