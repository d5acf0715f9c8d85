package xmldm

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindDate: "date", KindTuple: "tuple",
		KindCollection: "collection", KindNode: "node",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestAtomKindsAndStrings(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null{}, KindNull, "null"},
		{String("hi"), KindString, "hi"},
		{Int(-42), KindInt, "-42"},
		{Float(2.5), KindFloat, "2.5"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Date(time.Date(2001, time.April, 2, 0, 0, 0, 0, time.UTC)), KindDate, "2001-04-02T00:00:00Z"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v Kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(Field{"name", String("Ada")}, Field{"age", Int(36)})
	if tp.Len() != 2 {
		t.Fatalf("Len = %d", tp.Len())
	}
	if v, ok := tp.Get("age"); !ok || !Equal(v, Int(36)) {
		t.Errorf("Get(age) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Error("Get(missing) should report absent")
	}
	if !reflect.DeepEqual(tp.Names(), []string{"name", "age"}) {
		t.Errorf("Names = %v", tp.Names())
	}
	if got := tp.String(); got != "{name: Ada, age: 36}" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleWithReplacesAndAppends(t *testing.T) {
	tp := NewTuple(Field{"a", Int(1)})
	tp2 := tp.With("a", Int(2)).With("b", Int(3))
	if v, _ := tp.Get("a"); !Equal(v, Int(1)) {
		t.Error("With must not mutate the receiver")
	}
	if v, _ := tp2.Get("a"); !Equal(v, Int(2)) {
		t.Errorf("replaced a = %v", v)
	}
	if v, _ := tp2.Get("b"); !Equal(v, Int(3)) {
		t.Errorf("appended b = %v", v)
	}
}

func TestCollectionBasics(t *testing.T) {
	c := NewCollection(Int(1), Int(2))
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	if !Equal(c.Item(1), Int(2)) {
		t.Errorf("Item(1) = %v", c.Item(1))
	}
	if got := c.String(); got != "[1, 2]" {
		t.Errorf("String = %q", got)
	}
}

func TestNodeBasics(t *testing.T) {
	b := NewBuilder()
	root := b.Elem("customer",
		Attr{"id", "c1"},
		b.Elem("name", "Ada Lovelace"),
		b.Elem("order", b.Elem("total", 120)),
		b.Elem("order", b.Elem("total", 80)),
	)
	if id, ok := root.Attr("id"); !ok || id != "c1" {
		t.Errorf("Attr(id) = %q, %v", id, ok)
	}
	if _, ok := root.Attr("nope"); ok {
		t.Error("Attr(nope) should be absent")
	}
	if root.Child("name").Text() != "Ada Lovelace" {
		t.Errorf("name text = %q", root.Child("name").Text())
	}
	if got := len(root.ChildrenNamed("order")); got != 2 {
		t.Errorf("orders = %d", got)
	}
	if root.Child("missing") != nil {
		t.Error("Child(missing) should be nil")
	}
	if n := root.CountElements(); n != 6 {
		t.Errorf("CountElements = %d, want 6", n)
	}
	xml := root.String()
	if !strings.HasPrefix(xml, `<customer id="c1">`) || !strings.Contains(xml, "<total>120</total>") {
		t.Errorf("XML = %s", xml)
	}
}

func TestNodeStringEscapes(t *testing.T) {
	b := NewBuilder()
	n := b.Elem("p", Attr{"q", `a"<b`}, "x<y&z")
	s := n.String()
	if !strings.Contains(s, "&quot;") || !strings.Contains(s, "&lt;y&amp;z") {
		t.Errorf("escaping failed: %s", s)
	}
}

func TestEmptyNodeSelfCloses(t *testing.T) {
	n := &Node{Name: "br"}
	if n.String() != "<br/>" {
		t.Errorf("got %q", n.String())
	}
}

func TestWalkEarlyStop(t *testing.T) {
	b := NewBuilder()
	root := b.Elem("a", b.Elem("b"), b.Elem("c"))
	visited := 0
	root.Walk(func(n *Node) bool {
		visited++
		return n.Name != "b"
	})
	if visited != 2 {
		t.Errorf("visited = %d, want 2 (a then b, stop)", visited)
	}
}

func TestCoercions(t *testing.T) {
	b := NewBuilder()
	priceNode := b.Elem("price", "19.5")
	cases := []struct {
		v   Value
		f   float64
		fok bool
		i   int64
		iok bool
	}{
		{Int(7), 7, true, 7, true},
		{Float(2.9), 2.9, true, 2, true},
		{Bool(true), 1, true, 1, true},
		{Bool(false), 0, true, 0, true},
		{String(" 42 "), 42, true, 42, true},
		{String("4.9"), 4.9, true, 4, true},
		{String("abc"), 0, false, 0, false},
		{Null{}, 0, false, 0, false},
		{priceNode, 19.5, true, 19, true},
	}
	for _, c := range cases {
		f, ok := ToFloat(c.v)
		if ok != c.fok || (ok && f != c.f) {
			t.Errorf("ToFloat(%v) = %v, %v", c.v, f, ok)
		}
		i, ok := ToInt(c.v)
		if ok != c.iok || (ok && i != c.i) {
			t.Errorf("ToInt(%v) = %v, %v", c.v, i, ok)
		}
	}
}

func TestStringify(t *testing.T) {
	b := NewBuilder()
	n := b.Elem("x", "ab", b.Elem("y", "cd"))
	cases := []struct {
		v    Value
		want string
	}{
		{nil, ""},
		{Null{}, ""},
		{String("s"), "s"},
		{Int(3), "3"},
		{n, "abcd"},
		{NewCollection(String("a"), Int(1)), "a1"},
	}
	for _, c := range cases {
		if got := Stringify(c.v); got != c.want {
			t.Errorf("Stringify(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Bool(true), Int(1), Float(-0.5), String("x"), NewCollection(Int(1)), NewTuple(Field{"a", Int(1)}), &Node{Name: "e"}}
	falsy := []Value{nil, Null{}, Bool(false), Int(0), Float(0), String(""), NewCollection(), NewTuple()}
	for _, v := range truthy {
		if !Truthy(v) {
			t.Errorf("Truthy(%v) = false", v)
		}
	}
	for _, v := range falsy {
		if Truthy(v) {
			t.Errorf("Truthy(%v) = true", v)
		}
	}
}

func TestCompareAtoms(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Float(2.5), 1},
		{Float(1.5), Int(2), -1},
		{Bool(false), Int(1), -1},
		{Bool(true), Int(1), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Date(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)), Date(time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)), -1},
		{Null{}, Null{}, 0},
		{Null{}, Int(0), -1}, // nulls sort first by kind order
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if sign(Compare(c.b, c.a)) != -c.want {
			t.Errorf("Compare(%v, %v) not antisymmetric", c.b, c.a)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestCompareNodeWithAtom(t *testing.T) {
	b := NewBuilder()
	price := b.Elem("price", "100")
	if Compare(price, Int(100)) != 0 {
		t.Error("node <price>100</price> should equal Int(100)")
	}
	if Compare(price, Int(200)) >= 0 {
		t.Error("node 100 should be < 200")
	}
	name := b.Elem("name", "Ada")
	if Compare(name, String("Ada")) != 0 {
		t.Error("node text should equal string")
	}
}

func TestCompareNodesByValueNotPosition(t *testing.T) {
	b := NewBuilder()
	root := b.Elem("r", b.Elem("x", "zzz"), b.Elem("y", "aaa"))
	kids := root.ChildElements()
	if Compare(kids[0], kids[1]) <= 0 {
		t.Error("Compare is value-based: text zzz > aaa regardless of position")
	}
	if kids[0].Ord >= kids[1].Ord {
		t.Error("Ord should follow document position")
	}
}

func TestBuilderAssignsDocumentOrder(t *testing.T) {
	b := NewBuilder()
	root := b.Elem("r", b.Elem("a", b.Elem("c")), b.Elem("b"))
	// Document order: r=1, a=2, c=3, b=4, even though arguments were
	// constructed bottom-up.
	if root.Ord != 1 {
		t.Errorf("root Ord = %d", root.Ord)
	}
	a := root.Child("a")
	if a.Ord != 2 || a.Child("c").Ord != 3 || root.Child("b").Ord != 4 {
		t.Errorf("ordinals = a:%d c:%d b:%d", a.Ord, a.Child("c").Ord, root.Child("b").Ord)
	}
	if a.Parent != root || a.Child("c").Parent != a {
		t.Error("parent pointers wrong")
	}
}

func TestCompareComposites(t *testing.T) {
	a := NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)})
	b2 := NewTuple(Field{"a", Int(1)}, Field{"b", Int(3)})
	if Compare(a, b2) >= 0 {
		t.Error("tuple compare by fields")
	}
	short := NewTuple(Field{"a", Int(1)})
	if Compare(short, a) >= 0 {
		t.Error("shorter prefix tuple sorts first")
	}
	c1 := NewCollection(Int(1), Int(2))
	c2 := NewCollection(Int(1), Int(2), Int(0))
	if Compare(c1, c2) >= 0 {
		t.Error("prefix collection sorts first")
	}
	diffName := NewTuple(Field{"z", Int(1)})
	if Compare(short, diffName) >= 0 {
		t.Error("field names participate in tuple order")
	}
}

func TestWeakTypingAcrossSourceBoundaries(t *testing.T) {
	// Values crossing source boundaries arrive as text; the comparison
	// semantics must still match them against typed values (the design
	// choice documented on Compare).
	b := NewBuilder()
	cases := []struct {
		a, b Value
		want int
	}{
		{String("120"), Int(120), 0},
		{String("007"), Int(7), 0},
		{String(" 42 "), Float(42), 0},
		{String("120"), Int(100), 1},
		{String("99"), Int(100), -1},     // numeric, not lexicographic
		{String("10"), String("9"), 1},   // both numeric strings: by value
		{String("10"), String("9a"), -1}, // numeric class before string class
		{String("abc"), Int(5), 1},       // non-numeric string after numbers
		{b.Elem("p", "3.5"), Float(3.5), 0},
		{b.Elem("p", "x"), String("x"), 0},
		{String("1e2"), Int(100), 0}, // scientific notation parses
	}
	for _, c := range cases {
		if got := sign(Compare(c.a, c.b)); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if c.want == 0 && Hash(c.a) != Hash(c.b) {
			t.Errorf("equal values %v, %v hash differently", c.a, c.b)
		}
	}
}

func TestNaNIsTotallyOrdered(t *testing.T) {
	nan := Float(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN must compare equal to itself (total order)")
	}
	if Compare(nan, Float(math.Inf(-1))) != 0 {
		t.Error("NaN normalizes to -Inf")
	}
	if Compare(nan, Int(0)) >= 0 {
		t.Error("NaN sorts before finite numbers")
	}
	if Hash(nan) != Hash(Float(math.Inf(-1))) {
		t.Error("NaN hash must follow its comparison image")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	b := NewBuilder()
	pairs := [][2]Value{
		{Int(5), Float(5)},
		{Bool(true), Int(1)},
		{String("x"), String("x")},
		{b.Elem("p", "12"), Int(12)},
		{NewTuple(Field{"a", Int(1)}), NewTuple(Field{"a", Float(1)})},
		{NewCollection(Int(1), Int(2)), NewCollection(Float(1), Float(2))},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("Equal values %v, %v hash differently", p[0], p[1])
		}
	}
	if Hash(String("a")) == Hash(String("b")) {
		t.Error("suspicious: different strings hash equal")
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{Int(3), Int(1), String("a"), Null{}, Int(2)}
	sort.SliceStable(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
	// Nulls first (kind order), then numbers ascending, then strings.
	want := []Value{Null{}, Int(1), Int(2), Int(3), String("a")}
	for i := range want {
		if Compare(vs[i], want[i]) != 0 {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}

// randomValue generates a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(9)
	if depth <= 0 && k >= 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return Null{}
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1000) - 500)
	case 3:
		return Float(r.NormFloat64() * 100)
	case 4:
		return String(randString(r))
	case 5:
		return Date(time.Unix(r.Int63n(1e9), 0))
	case 6:
		n := r.Intn(3)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + r.Intn(4))), Value: randomValue(r, depth-1)}
		}
		return NewTuple(fields...)
	case 7:
		n := r.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = randomValue(r, depth-1)
		}
		return NewCollection(items...)
	default:
		b := NewBuilder()
		return b.Elem(string(rune('a'+r.Intn(4))), randString(r))
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + r.Intn(26)))
	}
	return sb.String()
}

func TestCompareIsReflexiveAndAntisymmetric_Property(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomValue(rr, 2)
		b := randomValue(rr, 2)
		if Compare(a, a) != 0 {
			t.Logf("Compare(%v, a) != 0", a)
			return false
		}
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompareIsTransitive_Property(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(rr, 2), randomValue(rr, 2), randomValue(rr, 2)
		vs := []Value{a, b, c}
		sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHashEqual_Property(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomValue(rr, 2)
		b := randomValue(rr, 2)
		if Equal(a, b) && Hash(a) != Hash(b) {
			t.Logf("equal values hash differently: %v vs %v", a, b)
			return false
		}
		return Hash(a) == Hash(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTupleRoundTripThroughNode(t *testing.T) {
	tp := NewTuple(
		Field{"name", String("Ada")},
		Field{"city", String("London")},
	)
	n := TupleToNode("row", tp)
	if n.Name != "row" || len(n.ChildElements()) != tp.Len() {
		t.Fatalf("TupleToNode = %v", n)
	}
	for _, f := range tp.Fields() {
		if c := n.Child(f.Name); c == nil || !Equal(String(c.Text()), f.Value) || c.Parent != n {
			t.Errorf("field %s: child %v", f.Name, c)
		}
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

// navDoc builds the document the navigation tests walk:
//
//	<catalog>
//	  <book id="b1"><title>TAOCP</title><author>Knuth</author></book>
//	  <book id="b2"><title>SICP</title><author>Abelson</author><author>Sussman</author></book>
//	  <journal id="j1"><title>TODS</title></journal>
//	</catalog>
func navDoc() *Node {
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

func nodeNames(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name
	}
	return out
}

// TestParentAndAncestor checks the parent pointers that parent() and
// root() follow: each element names its parent, the chain ends at the
// document root, and the root has none.
func TestParentAndAncestor(t *testing.T) {
	doc := navDoc()
	title := doc.ChildElements()[1].Child("title")
	if title.Parent == nil || title.Parent.Name != "book" {
		t.Fatalf("parent = %v", title.Parent)
	}
	if id, _ := title.Parent.Attr("id"); id != "b2" {
		t.Errorf("parent id = %q, want b2", id)
	}
	var anc []*Node
	for p := title.Parent; p != nil; p = p.Parent {
		anc = append([]*Node{p}, anc...)
	}
	if got := nodeNames(anc); !slices.Equal(got, []string{"catalog", "book"}) {
		t.Errorf("ancestors = %v (document order expected)", got)
	}
	if anc[0] != doc {
		t.Error("ancestor chain does not end at the document root")
	}
	for i := 1; i < len(anc); i++ {
		if anc[i-1].Ord >= anc[i].Ord {
			t.Errorf("ancestor %s ord %d not before %s ord %d", anc[i-1].Name, anc[i-1].Ord, anc[i].Name, anc[i].Ord)
		}
	}
	if doc.Parent != nil {
		t.Errorf("root parent = %v", doc.Parent)
	}
}

// TestSiblingAxes checks the child order that siblings() walks: an
// element's following and preceding siblings are its parent's element
// children after and before it, in document order.
func TestSiblingAxes(t *testing.T) {
	doc := navDoc()
	kids := doc.ChildElements()
	firstBook := kids[0]
	at := slices.Index(firstBook.Parent.ChildElements(), firstBook)
	after := firstBook.Parent.ChildElements()[at+1:]
	if got := nodeNames(after); !slices.Equal(got, []string{"book", "journal"}) {
		t.Errorf("following = %v", got)
	}
	journal := doc.Child("journal")
	var before []*Node
	for _, s := range journal.Parent.ChildElements() {
		if s == journal {
			break
		}
		if s.Name == "book" {
			before = append(before, s)
		}
	}
	if len(before) != 2 {
		t.Errorf("preceding books = %d", len(before))
	}
	for i := 1; i < len(kids); i++ {
		if kids[i-1].Ord >= kids[i].Ord {
			t.Errorf("sibling %d ord %d not before sibling %d ord %d", i-1, kids[i-1].Ord, i, kids[i].Ord)
		}
	}
}
