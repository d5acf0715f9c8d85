package xmldm

import (
	"testing"
)

// testDoc builds the document used by the path tests:
//
//	<catalog>
//	  <book id="b1"><title>TAOCP</title><author>Knuth</author></book>
//	  <book id="b2"><title>SICP</title><author>Abelson</author><author>Sussman</author></book>
//	  <journal id="j1"><title>TODS</title></journal>
//	</catalog>
func testDoc() *Node {
	b := NewBuilder()
	return b.Elem("catalog",
		b.Elem("book", Attr{"id", "b1"},
			b.Elem("title", "TAOCP"),
			b.Elem("author", "Knuth"),
		),
		b.Elem("book", Attr{"id", "b2"},
			b.Elem("title", "SICP"),
			b.Elem("author", "Abelson"),
			b.Elem("author", "Sussman"),
		),
		b.Elem("journal", Attr{"id", "j1"},
			b.Elem("title", "TODS"),
		),
	)
}

func names(vs []Value) []string {
	var out []string
	for _, v := range vs {
		switch x := v.(type) {
		case *Node:
			out = append(out, x.Name)
		default:
			out = append(out, x.String())
		}
	}
	return out
}

func texts(vs []Value) []string {
	var out []string
	for _, v := range vs {
		out = append(out, Stringify(v))
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChildPath(t *testing.T) {
	doc := testDoc()
	got := Path{{Axis: AxisChild, Name: "book"}, {Axis: AxisChild, Name: "title"}}.Eval(doc)
	if !eqStrings(texts(got), []string{"TAOCP", "SICP"}) {
		t.Errorf("book/title = %v", texts(got))
	}
}

func TestWildcardChild(t *testing.T) {
	doc := testDoc()
	got := Path{{AxisChild, "*"}}.Eval(doc)
	if !eqStrings(names(got), []string{"book", "book", "journal"}) {
		t.Errorf("children = %v", names(got))
	}
}

func TestDescendantAxis(t *testing.T) {
	doc := testDoc()
	got := Path{{AxisDescendant, "title"}}.Eval(doc)
	if !eqStrings(texts(got), []string{"TAOCP", "SICP", "TODS"}) {
		t.Errorf("//title = %v", texts(got))
	}
	got = Path{{AxisDescendant, "author"}}.Eval(doc)
	if len(got) != 3 {
		t.Errorf("//author count = %d", len(got))
	}
}

func TestDescendantOrSelf(t *testing.T) {
	doc := testDoc()
	got := Path{{AxisDescendantOrSelf, "*"}}.Eval(doc)
	if len(got) != doc.CountElements() {
		t.Errorf("descendant-or-self::* = %d, want %d", len(got), doc.CountElements())
	}
	got = Path{{AxisDescendantOrSelf, "catalog"}}.Eval(doc)
	if len(got) != 1 || got[0].(*Node) != doc {
		t.Error("descendant-or-self::catalog should select the root itself")
	}
}

func TestParentAndAncestor(t *testing.T) {
	doc := testDoc()
	title := Path{{AxisDescendant, "title"}}.Eval(doc)[0].(*Node)
	up := Path{{AxisParent, "*"}}.Eval(title)
	if len(up) != 1 || up[0].(*Node).Name != "book" {
		t.Errorf("parent = %v", names(up))
	}
	anc := Path{{AxisAncestor, "*"}}.Eval(title)
	if !eqStrings(names(anc), []string{"catalog", "book"}) {
		t.Errorf("ancestors = %v (document order expected)", names(anc))
	}
	// Root has no parent.
	if got := (Path{{AxisParent, "*"}}).Eval(doc); got != nil {
		t.Errorf("root parent = %v", got)
	}
}

func TestSiblingAxes(t *testing.T) {
	doc := testDoc()
	firstBook := doc.ChildElements()[0]
	after := Path{{AxisFollowingSibling, "*"}}.Eval(firstBook)
	if !eqStrings(names(after), []string{"book", "journal"}) {
		t.Errorf("following = %v", names(after))
	}
	journal := doc.Child("journal")
	before := Path{{AxisPrecedingSibling, "book"}}.Eval(journal)
	if len(before) != 2 {
		t.Errorf("preceding books = %d", len(before))
	}
}

func TestAttributeAxis(t *testing.T) {
	doc := testDoc()
	got := Path{{AxisChild, "book"}, {AxisAttribute, "id"}}.Eval(doc)
	if !eqStrings(texts(got), []string{"b1", "b2"}) {
		t.Errorf("book/@id = %v", texts(got))
	}
	all := Path{{AxisChild, "*"}, {AxisAttribute, "*"}}.Eval(doc)
	if len(all) != 3 {
		t.Errorf("*/@* = %d", len(all))
	}
	// Attribute step must be last.
	bad := Path{{AxisAttribute, "id"}, {AxisChild, "x"}}.Eval(doc)
	if bad != nil {
		t.Errorf("attribute mid-path should select nothing, got %v", bad)
	}
}

func TestSelfAxis(t *testing.T) {
	doc := testDoc()
	got := Path{{AxisSelf, "catalog"}}.Eval(doc)
	if len(got) != 1 {
		t.Errorf("self = %v", names(got))
	}
	got = Path{{AxisSelf, "other"}}.Eval(doc)
	if got != nil {
		t.Errorf("self with wrong name = %v", names(got))
	}
}

func TestPathOnNilAndEmpty(t *testing.T) {
	if got := (Path{{Axis: AxisChild, Name: "x"}}).Eval(nil); got != nil {
		t.Errorf("Eval(nil) = %v", got)
	}
	doc := testDoc()
	if got := (Path{{Axis: AxisChild, Name: "nosuch"}, {Axis: AxisChild, Name: "deeper"}}).Eval(doc); got != nil {
		t.Errorf("dead-end path = %v", got)
	}
	if got := (Path{}).Eval(doc); len(got) != 1 || got[0].(*Node) != doc {
		t.Errorf("empty path should yield the start node")
	}
}

func TestDescendantResultsInDocumentOrderNoDuplicates(t *testing.T) {
	doc := testDoc()
	// Two-step descendant paths can revisit nodes; ensure dedup + order.
	got := Path{{AxisDescendantOrSelf, "*"}, {AxisDescendant, "author"}}.Eval(doc)
	if len(got) != 3 {
		t.Fatalf("authors = %d, want 3 (deduplicated)", len(got))
	}
	prev := -1
	for _, v := range got {
		n := v.(*Node)
		if n.Ord <= prev {
			t.Fatal("results not in document order")
		}
		prev = n.Ord
	}
}

func TestFinalizeRenumbers(t *testing.T) {
	// Assemble a tree manually (no builder ordinals), then finalize.
	root := &Node{Name: "r", Children: []Value{
		&Node{Name: "a"},
		&Node{Name: "b", Children: []Value{&Node{Name: "c"}}},
	}}
	Finalize(root)
	if root.Ord != 1 {
		t.Errorf("root ord = %d", root.Ord)
	}
	c := root.Child("b").Child("c")
	if c.Parent == nil || c.Parent.Name != "b" {
		t.Error("parent pointers not fixed")
	}
	if c.Ord != 4 {
		t.Errorf("c ord = %d, want 4 (r=1,a=2,b=3,c=4)", c.Ord)
	}
}

func TestAxisString(t *testing.T) {
	axes := []Axis{AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisSelf,
		AxisParent, AxisAncestor, AxisFollowingSibling, AxisPrecedingSibling, AxisAttribute}
	seen := map[string]bool{}
	for _, a := range axes {
		s := a.String()
		if s == "" || seen[s] {
			t.Errorf("axis %d has empty or duplicate name %q", a, s)
		}
		seen[s] = true
	}
}
