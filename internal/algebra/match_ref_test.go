package algebra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// The list-based matcher the backtracking one replaced, kept as the
// reference: each content item maps the list of bindings so far to the
// list after it, and a child pattern's candidates are a slice.

func refMatchPattern(ctx *Context, root *xmldm.Node, pat *xmlql.ElemPattern, base Binding) ([]Binding, error) {
	var out []Binding
	for _, e := range refCandidates(root, pat.Tag, true) {
		bs, err := refMatchElement(ctx, e, pat, base)
		if err != nil {
			return nil, err
		}
		out = append(out, bs...)
	}
	return out, nil
}

func refCandidates(root *xmldm.Node, tag xmlql.TagTest, topLevel bool) []*xmldm.Node {
	var out []*xmldm.Node
	if topLevel || tag.Descendant {
		root.Walk(func(n *xmldm.Node) bool {
			if (n != root || topLevel) && tag.Matches(n.Name) {
				out = append(out, n)
			}
			return true
		})
		return out
	}
	for _, c := range root.ChildElements() {
		if tag.Matches(c.Name) {
			out = append(out, c)
		}
	}
	return out
}

func refMatchElement(ctx *Context, e *xmldm.Node, pat *xmlql.ElemPattern, base Binding) ([]Binding, error) {
	ctx.AddMatches(1)
	b := base
	if pat.Tag.Var != "" {
		nb, ok := refBindUnify(b, pat.Tag.Var, xmldm.String(e.Name))
		if !ok {
			return nil, nil
		}
		b = nb
	}
	for _, ap := range pat.Attrs {
		v, ok := e.Attr(ap.Name)
		if !ok {
			return nil, nil
		}
		if ap.Var != "" {
			nb, ok := refBindUnify(b, ap.Var, xmldm.String(v))
			if !ok {
				return nil, nil
			}
			b = nb
		} else if v != ap.Lit {
			return nil, nil
		}
	}
	if pat.ElementAs != "" {
		nb, ok := refBindUnify(b, pat.ElementAs, e)
		if !ok {
			return nil, nil
		}
		b = nb
	}
	if pat.ContentAs != "" {
		nb, ok := refBindUnify(b, pat.ContentAs, contentValue(e))
		if !ok {
			return nil, nil
		}
		b = nb
	}
	bindings := []Binding{b}
	for _, item := range pat.Content {
		var next []Binding
		switch it := item.(type) {
		case *xmlql.ChildPattern:
			cands := refCandidates(e, it.Elem.Tag, false)
			for _, cur := range bindings {
				for _, c := range cands {
					bs, err := refMatchElement(ctx, c, it.Elem, cur)
					if err != nil {
						return nil, err
					}
					next = append(next, bs...)
				}
			}
		case *xmlql.VarContent:
			v := contentValue(e)
			for _, cur := range bindings {
				if nb, ok := refBindUnify(cur, it.Var, v); ok {
					next = append(next, nb)
				}
			}
		case *xmlql.TextContent:
			if strings.TrimSpace(e.Text()) == strings.TrimSpace(it.Text) {
				next = bindings
			}
		default:
			return nil, fmt.Errorf("algebra: unknown content pattern %T", item)
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

func refBindUnify(b Binding, name string, v xmldm.Value) (Binding, bool) {
	if existing, ok := b.Get(name); ok {
		return b, xmldm.Equal(existing, v)
	}
	return b.With(name, v), true
}

// bindingKeys renders bindings exactly: field names in order, each value
// by kind and text, a node by identity.
func bindingKeys(bs []Binding) []string {
	var value func(v xmldm.Value) string
	value = func(v xmldm.Value) string {
		switch x := v.(type) {
		case *xmldm.Node:
			return fmt.Sprintf("node@%p", x)
		case *xmldm.Collection:
			parts := make([]string, x.Len())
			for i, it := range x.Items() {
				parts[i] = value(it)
			}
			return "[" + strings.Join(parts, " ") + "]"
		default:
			return fmt.Sprintf("%s:%q", v.Kind(), v.String())
		}
	}
	out := make([]string, len(bs))
	for i, b := range bs {
		var sb strings.Builder
		for _, f := range b.Fields() {
			fmt.Fprintf(&sb, "%s=%s;", f.Name, value(f.Value))
		}
		out[i] = sb.String()
	}
	return out
}

// indexOver answers Match.Index for exactly the given documents, by
// pointer, as a source does for the one it serves.
func indexOver(docs ...*xmldm.Node) func(*xmldm.Node) *xmldm.ElemIndex {
	ix := map[*xmldm.Node]*xmldm.ElemIndex{}
	for _, d := range docs {
		ix[d] = xmldm.NewElemIndex(d)
	}
	return func(d *xmldm.Node) *xmldm.ElemIndex { return ix[d] }
}

// runMatch drains a Match over roots, one input binding per base, and
// returns the bindings and the match attempts it counted.
func runMatch(t testing.TB, roots []xmldm.Value, index func(*xmldm.Node) *xmldm.ElemIndex, pat *xmlql.ElemPattern, bases []Binding) ([]Binding, int64) {
	t.Helper()
	ctx := &Context{}
	m := &Match{
		Input:   &TupleScan{Tuples: bases},
		Pattern: pat,
		Roots:   func(*Context) ([]xmldm.Value, error) { return roots, nil },
		Index:   index,
	}
	out, err := drain(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	return out, ctx.Snapshot().PatternMatches
}

// checkMatcher holds the matcher to the reference over one case: the
// same bindings in the same order with the same fields, and the same
// match count, through MatchPattern and through Match; with every root
// indexed, the same bindings again from no more match attempts.
func checkMatcher(t testing.TB, docs []*xmldm.Node, pat *xmlql.ElemPattern, bases []Binding) int {
	t.Helper()
	refCtx := &Context{}
	var want []Binding
	for _, base := range bases {
		for _, d := range docs {
			bs, err := refMatchPattern(refCtx, d, pat, base)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, bs...)
		}
	}
	wantKeys := strings.Join(bindingKeys(want), "\n")
	wantMatches := refCtx.Snapshot().PatternMatches
	describe := func() string {
		var sb strings.Builder
		for _, d := range docs {
			sb.WriteString(d.String() + "\n")
		}
		q := &xmlql.Query{
			Where:     []xmlql.Condition{&xmlql.PatternCond{Pattern: pat, Source: xmlql.SourceRef{Name: "s"}}},
			Construct: &xmlql.TmplElem{Tag: "r"},
		}
		return fmt.Sprintf("query %s\nbases %v\ndocs:\n%s", q, bases, sb.String())
	}

	ctx := &Context{}
	var got []Binding
	for _, base := range bases {
		for _, d := range docs {
			bs, err := MatchPattern(ctx, d, pat, base)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, bs...)
		}
	}
	if keys := strings.Join(bindingKeys(got), "\n"); keys != wantKeys {
		t.Fatalf("MatchPattern differs from the reference\n%s\ngot:\n%s\nwant:\n%s", describe(), keys, wantKeys)
	}
	if n := ctx.Snapshot().PatternMatches; n != wantMatches {
		t.Fatalf("MatchPattern counted %d matches, the reference %d\n%s", n, wantMatches, describe())
	}

	roots := make([]xmldm.Value, len(docs))
	for i, d := range docs {
		roots[i] = d
	}
	got, n := runMatch(t, roots, nil, pat, bases)
	if keys := strings.Join(bindingKeys(got), "\n"); keys != wantKeys {
		t.Fatalf("walked Match differs from the reference\n%s\ngot:\n%s\nwant:\n%s", describe(), keys, wantKeys)
	}
	if n != wantMatches {
		t.Fatalf("walked Match counted %d matches, the reference %d\n%s", n, wantMatches, describe())
	}
	got, n = runMatch(t, roots, indexOver(docs...), pat, bases)
	if keys := strings.Join(bindingKeys(got), "\n"); keys != wantKeys {
		t.Fatalf("indexed Match differs from the walk\n%s\ngot:\n%s\nwant:\n%s", describe(), keys, wantKeys)
	}
	if n > wantMatches {
		t.Fatalf("indexed Match counted %d matches, more than the walk's %d\n%s", n, wantMatches, describe())
	}
	return len(want)
}

// The generators draw from small alphabets so that names, values and
// variables collide: repeated variables unify, literals hit and miss.
var (
	genNames  = []string{"a", "b", "c"}
	genValues = []string{"1", "2", " 1 ", "x", ""}
	genVars   = []string{"v", "w", "x"}
)

func genDoc(rng *rand.Rand, depth int) *xmldm.Node {
	n := &xmldm.Node{Name: genNames[rng.Intn(len(genNames))]}
	for _, attr := range []string{"k", "m"} {
		if rng.Intn(2) == 0 {
			n.Attrs = append(n.Attrs, xmldm.Attr{Name: attr, Value: genValues[rng.Intn(len(genValues))]})
		}
	}
	kids := rng.Intn(5)
	if depth == 0 {
		kids = 0
	}
	for i := 0; i < kids; i++ {
		if rng.Intn(4) == 0 {
			n.Children = append(n.Children, xmldm.String(genValues[rng.Intn(len(genValues))]))
		} else {
			c := genDoc(rng, depth-1)
			c.Parent = n
			n.Children = append(n.Children, c)
		}
	}
	if len(n.Children) == 0 && rng.Intn(2) == 0 {
		n.Children = append(n.Children, xmldm.String(genValues[rng.Intn(len(genValues))]))
	}
	return n
}

func genTag(rng *rand.Rand, nested bool) xmlql.TagTest {
	var t xmlql.TagTest
	switch rng.Intn(6) {
	case 0:
		t.Wild = true
	case 1:
		t.Var = "t" + genVars[rng.Intn(2)]
	case 2:
		t.Alts = []string{"a", "b"}
	default:
		t.Name = genNames[rng.Intn(len(genNames))]
	}
	t.Descendant = nested && rng.Intn(4) == 0
	return t
}

func genPattern(rng *rand.Rand, depth int, nested bool) *xmlql.ElemPattern {
	p := &xmlql.ElemPattern{Tag: genTag(rng, nested)}
	for _, attr := range []string{"k", "m"} {
		switch rng.Intn(8) {
		case 0:
			p.Attrs = append(p.Attrs, xmlql.AttrPattern{Name: attr, Var: genVars[rng.Intn(len(genVars))]})
		case 1:
			p.Attrs = append(p.Attrs, xmlql.AttrPattern{Name: attr, Lit: genValues[rng.Intn(len(genValues))]})
		}
	}
	if rng.Intn(5) == 0 {
		p.ElementAs = "e" + genVars[rng.Intn(2)]
	}
	if rng.Intn(5) == 0 {
		p.ContentAs = genVars[rng.Intn(len(genVars))]
	}
	items := rng.Intn(3)
	for i := 0; i < items; i++ {
		switch k := rng.Intn(6); {
		case k <= 2 && depth > 0:
			p.Content = append(p.Content, &xmlql.ChildPattern{Elem: genPattern(rng, depth-1, true)})
		case k <= 4:
			p.Content = append(p.Content, &xmlql.VarContent{Var: genVars[rng.Intn(len(genVars))]})
		default:
			p.Content = append(p.Content, &xmlql.TextContent{Text: genValues[rng.Intn(len(genValues))]})
		}
	}
	return p
}

func genBases(rng *rand.Rand) []Binding {
	bases := []Binding{xmldm.NewTuple()}
	if rng.Intn(2) == 0 {
		bases = append(bases, xmldm.NewTuple(xmldm.Field{Name: genVars[rng.Intn(len(genVars))], Value: xmldm.String(genValues[rng.Intn(len(genValues))])}))
	}
	return bases
}

// TestMatcherEqualsReference_Property: over random documents, patterns and
// base bindings — repeated variables, tag variables, alternatives,
// descendant children, attribute variables and literals, ELEMENT_AS and
// CONTENT_AS, text content, several content items, several roots — the
// backtracking matcher emits what the list-based reference emits, and an
// index changes nothing but the number of candidates tried.
func TestMatcherEqualsReference_Property(t *testing.T) {
	matched, multi := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := []*xmldm.Node{genDoc(rng, 3)}
		if rng.Intn(3) == 0 {
			docs = append(docs, genDoc(rng, 2))
		}
		for _, d := range docs {
			xmldm.Finalize(d)
		}
		switch n := checkMatcher(t, docs, genPattern(rng, 2, false), genBases(rng)); {
		case n > 1:
			multi++
			fallthrough
		case n == 1:
			matched++
		}
	}
	t.Logf("%d of 600 cases matched, %d more than once", matched, multi)
	if matched < 200 || multi < 150 {
		t.Fatalf("%d of 600 cases matched, %d more than once: the generator no longer exercises the matcher", matched, multi)
	}
}

// TestIndexedMatchSkipsNonCandidates: on a document where most elements
// fail the tag or the attribute literal, the index tries only the ones
// that pass, and the answer is the walk's.
func TestIndexedMatchSkipsNonCandidates(t *testing.T) {
	doc := mustDoc(t, `<t><x pri="high"><c>1</c></x><x pri="low"><c>2</c></x><y pri="high"><c>3</c></y><x pri="high"><c>4</c></x></t>`)
	pat := patOf(t, `WHERE <x pri="high"><c>$c</c></x> IN "s" CONSTRUCT <r/>`)
	roots := []xmldm.Value{doc}
	walked, walkedN := runMatch(t, roots, nil, pat, []Binding{xmldm.NewTuple()})
	indexed, indexedN := runMatch(t, roots, indexOver(doc), pat, []Binding{xmldm.NewTuple()})
	if got, want := strings.Join(bindingKeys(indexed), "\n"), strings.Join(bindingKeys(walked), "\n"); got != want || len(walked) != 2 {
		t.Fatalf("indexed %q, walked %q", got, want)
	}
	// Walked: three <x> tried (two children matched); indexed: the two
	// high-priority <x> and their two children.
	if walkedN != 5 || indexedN != 4 {
		t.Errorf("match attempts walked=%d indexed=%d, want 5 and 4", walkedN, indexedN)
	}
}

// FuzzMatchPattern holds the matcher to the reference, and the indexed
// leaf to the walked one, on any document and pattern that parse (small
// enough that the reference's Cartesian products stay small).
func FuzzMatchPattern(f *testing.F) {
	f.Add(`<r><a k="1">x</a><b k="1"><a>1</a></b></r>`, `<a k=$v>$c</a>`)
	f.Add(bibXML, `<book year=$y><title>$t</title><author>$a</author></book>`)
	f.Add(`<r><x><k>1</k></x><y><k>2</k></y></r>`, `<$t><k>$v</k></$t>`)
	f.Add(`<a><b><c><p>9</p></c></b><p>7</p></a>`, `<a><//p>$p</></a>`)
	f.Add(`<r><p><a>1</a><b>1</b></p><p><a>1</a><b>2</b></p></r>`, `<p><a>$v</a><b>$v</b></p> ELEMENT_AS $e CONTENT_AS $c`)
	f.Add(`<r><b><a>K</a></b><b><e>G</e></b></r>`, `<b><(a|e)>$w</></b>`)
	f.Add(`<r><t pri="high"> 1 </t><t pri="low">1</t></r>`, `<t pri="high">"1"</t>`)
	f.Add(`<r><a>1</a><b>2</b></r>`, `<*>$v</>`)
	f.Fuzz(func(t *testing.T, docText, patText string) {
		if len(docText) > 512 || len(patText) > 128 {
			return
		}
		doc, err := xmlparse.ParseString(docText)
		if err != nil || doc.CountElements() > 24 {
			return
		}
		q, err := xmlql.Parse(`WHERE ` + patText + ` IN "s" CONSTRUCT <r/>`)
		if err != nil || len(q.Where) != 1 {
			return
		}
		pc, ok := q.Where[0].(*xmlql.PatternCond)
		if !ok || childPatterns(pc.Pattern) > 3 {
			return
		}
		checkMatcher(t, []*xmldm.Node{doc}, pc.Pattern, []Binding{xmldm.NewTuple()})
	})
}

func childPatterns(p *xmlql.ElemPattern) int {
	n := 0
	for _, c := range p.Content {
		if cp, ok := c.(*xmlql.ChildPattern); ok {
			n += 1 + childPatterns(cp.Elem)
		}
	}
	return n
}
