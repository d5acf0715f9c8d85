package catalog

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

func TestAddAndLookupSource(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	if err := c.AddSource(NewStaticSource("s1", doc)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSource(NewStaticSource("S1", doc)); err == nil {
		t.Error("duplicate source (case-insensitive) should fail")
	}
	if err := c.AddSource(NewStaticSource("", doc)); err == nil {
		t.Error("empty name should fail")
	}
	s, err := c.Source("s1")
	if err != nil || s.Name() != "s1" {
		t.Errorf("Source = %v, %v", s, err)
	}
	if _, err := c.Source("nope"); err == nil {
		t.Error("unknown source should fail")
	}
	if !c.IsSource("s1") || c.IsSource("nope") {
		t.Error("IsSource wrong")
	}
}

func TestDefineViewAndHierarchy(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	if err := c.AddSource(NewStaticSource("base", doc)); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineViewQL("level1", `WHERE <a>$x</a> IN "base" CONSTRUCT <b>$x</b>`); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineViewQL("level2", `WHERE <b>$x</b> IN "level1" CONSTRUCT <c>$x</c>`); err != nil {
		t.Fatal(err)
	}
	if !c.IsSchema("level1") || !c.IsSchema("LEVEL2") {
		t.Error("IsSchema wrong")
	}
	vs, err := c.Views("level2")
	if err != nil || len(vs) != 1 {
		t.Fatalf("Views = %v, %v", vs, err)
	}
	if err := c.CheckAcyclic(); err != nil {
		t.Errorf("acyclic hierarchy flagged: %v", err)
	}
	// Multiple view defs union into one schema.
	if err := c.DefineViewQL("level1", `WHERE <z>$x</z> IN "base" CONSTRUCT <b>$x</b>`); err != nil {
		t.Fatal(err)
	}
	vs, _ = c.Views("level1")
	if len(vs) != 2 {
		t.Errorf("view defs = %d", len(vs))
	}
}

func TestNameCollisionsBetweenSourcesAndSchemas(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	if err := c.AddSource(NewStaticSource("x", doc)); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineViewQL("x", `WHERE <a>$v</a> IN "x" CONSTRUCT <b>$v</b>`); err == nil {
		t.Error("schema with source name should fail")
	}
	if err := c.DefineViewQL("y", `WHERE <a>$v</a> IN "x" CONSTRUCT <b>$v</b>`); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSource(NewStaticSource("y", doc)); err == nil {
		t.Error("source with schema name should fail")
	}
}

func TestCheckAcyclicDetectsCycle(t *testing.T) {
	c := New()
	if err := c.DefineViewQL("a", `WHERE <x>$v</x> IN "b" CONSTRUCT <y>$v</y>`); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineViewQL("b", `WHERE <y>$v</y> IN "a" CONSTRUCT <x>$v</x>`); err != nil {
		t.Fatal(err)
	}
	err := c.CheckAcyclic()
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestQueryDeps(t *testing.T) {
	q := xmlql.MustParse(`
		WHERE <a>$x</a> IN "s1", <b>$y</b> IN "s2", <c>$z</c> IN $x
		CONSTRUCT <r>
			{ WHERE <d>$w</d> IN "s3" CONSTRUCT <e>$w</e> }
			<n>{ count({ WHERE <f>$u</f> IN "s4" CONSTRUCT <g>$u</g> }) }</n>
		</r>`)
	deps := QueryDeps(q)
	want := map[string]bool{"s1": true, "s2": true, "s3": true, "s4": true}
	if len(deps) != 4 {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected dep %q", d)
		}
	}
}

func TestStaticSourceFetchAndReplace(t *testing.T) {
	b := xmldm.NewBuilder()
	s := NewStaticSource("s", b.Elem("doc", b.Elem("item", "1")))
	doc, cost, err := s.Fetch(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "doc" || cost.RowsReturned != 2 {
		t.Errorf("doc = %s, cost = %+v", doc.Name, cost)
	}
	s.Replace(b.Elem("doc2"))
	doc, _, _ = s.Fetch(context.Background(), Request{})
	if doc.Name != "doc2" {
		t.Error("Replace did not take effect")
	}
}

// TestStaticSourceIndexesOnlyItsCurrentDocument: IndexFor answers for the
// document Fetch returns now — the same index every time — and for
// nothing else: not an equal copy, not the document before a Replace.
func TestStaticSourceIndexesOnlyItsCurrentDocument(t *testing.T) {
	b := xmldm.NewBuilder()
	first := b.Elem("doc", b.Elem("item", "1"), b.Elem("item", "2"))
	s := NewStaticSource("s", first)
	doc, _, _ := s.Fetch(context.Background(), Request{})
	ix := s.IndexFor(doc)
	if ix == nil || ix.All()[0] != doc || len(ix.Named("item")) != 2 || s.IndexFor(doc) != ix {
		t.Fatalf("IndexFor(current) = %+v", ix)
	}
	if s.IndexFor(b.Elem("doc", b.Elem("item", "1"), b.Elem("item", "2"))) != nil || s.IndexFor(nil) != nil {
		t.Error("an equal copy or nil must get no index")
	}
	s.Replace(b.Elem("doc2"))
	if s.IndexFor(first) != nil {
		t.Error("the document from before Replace must get no index")
	}
	doc, cost, _ := s.Fetch(context.Background(), Request{})
	if s.IndexFor(doc) == nil || cost.RowsReturned != 1 {
		t.Errorf("after Replace: index %v, cost %+v", s.IndexFor(doc), cost)
	}
}

func TestSchemaAndSourceNames(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	c.AddSource(NewStaticSource("zeta", doc))
	c.AddSource(NewStaticSource("alpha", doc))
	c.DefineViewQL("mid", `WHERE <a>$v</a> IN "alpha" CONSTRUCT <b>$v</b>`)
	if got := c.SourceNames(); len(got) != 2 || got[0] != "alpha" {
		t.Errorf("SourceNames = %v", got)
	}
	if got := c.SchemaNames(); len(got) != 1 || got[0] != "mid" {
		t.Errorf("SchemaNames = %v", got)
	}
}

// renamingSource wraps a source for the WrapAll test.
type renamingSource struct{ Source }

func TestWrapAll(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	c.AddSource(NewStaticSource("a", doc))
	c.AddSource(NewStaticSource("b", doc))
	// Wrap only "a"; returning nil keeps "b" untouched.
	c.WrapAll(func(s Source) Source {
		if s.Name() == "a" {
			return renamingSource{s}
		}
		return nil
	})
	a, err := c.Source("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(renamingSource); !ok {
		t.Errorf("source a = %T, want the wrapper", a)
	}
	b, err := c.Source("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*StaticSource); !ok {
		t.Errorf("source b = %T, want the original", b)
	}
	// Lookups still key on the registered name after wrapping.
	if got := c.SourceNames(); len(got) != 2 {
		t.Errorf("SourceNames = %v", got)
	}
}

func TestDefineViewValidation(t *testing.T) {
	c := New()
	if err := c.DefineView("s", nil); err == nil {
		t.Error("nil view should fail")
	}
	if err := c.DefineViewQL("", `WHERE <a>$v</a> IN "x" CONSTRUCT <b>$v</b>`); err == nil {
		t.Error("empty schema name should fail")
	}
	if err := c.DefineViewQL("s", `not xmlql`); err == nil {
		t.Error("bad query text should fail")
	}
}

// TestDependents: a name's dependents are the schemas defined over it at
// any depth — read in a pattern or in a nested query — and only those.
func TestDependents(t *testing.T) {
	c := New()
	doc := xmldm.NewBuilder().Elem("d")
	for _, s := range []string{"base", "other"} {
		if err := c.AddSource(NewStaticSource(s, doc)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range [][2]string{
		{"Level1", `WHERE <a>$x</a> IN "base" CONSTRUCT <b>$x</b>`},
		{"level2", `WHERE <b>$x</b> IN "LEVEL1" CONSTRUCT <c>$x</c>`},
		{"nested", `WHERE <o>$x</o> IN "other" CONSTRUCT <n>{ WHERE <c>$y</c> IN "level2" CONSTRUCT <y>$y</y> }</n>`},
		{"apart", `WHERE <o>$x</o> IN "other" CONSTRUCT <p>$x</p>`},
	} {
		if err := c.DefineViewQL(v[0], v[1]); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]string{
		"BASE":   "base level1 level2 nested",
		"level2": "level2 nested",
		"other":  "other apart nested",
		"apart":  "apart",
	} {
		got := c.Dependents(name)
		sort.Strings(got[1:])
		if strings.Join(got, " ") != want {
			t.Errorf("Dependents(%s) = %v, want %s", name, got, want)
		}
	}
}
