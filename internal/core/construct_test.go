package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/xmldm"
)

// TestBuilderSlabsDoNotAlias checks that the results one rewrite carves
// from one slab behave like separately allocated trees: appending to one
// result's attributes and children, at every depth, must not overwrite
// another's — nor another node's of the same result. Document() of such
// an answer is still a private copy.
func TestBuilderSlabsDoNotAlias(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <r id=$i><who k=$c>$n<where>$c</where></who><tail/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("%d results, want 3", len(res.Values))
	}
	row := func(i int) *xmldm.Node { return res.Values[i].(*xmldm.Node) }
	before := make([]string, len(res.Values))
	for i := range res.Values {
		before[i] = row(i).String()
	}

	doc := res.Document()
	shared := map[*xmldm.Node]bool{}
	for i := range res.Values {
		row(i).Walk(func(n *xmldm.Node) bool { shared[n] = true; return true })
	}
	doc.Walk(func(n *xmldm.Node) bool {
		if shared[n] {
			t.Fatalf("Document() holds the result's <%s> itself", n.Name)
		}
		n.Attrs = append(n.Attrs, xmldm.Attr{Name: "doc", Value: "!"})
		n.Children = append(n.Children, xmldm.String("doc"))
		return true
	})
	for i := range res.Values {
		if got := row(i).String(); got != before[i] {
			t.Fatalf("editing Document() changed result %d: %s, was %s", i, got, before[i])
		}
	}

	mid := row(1)
	who := mid.Child("who")
	where, tail := who.Child("where"), mid.Child("tail")
	if mid.Parent != nil || who.Parent != mid || where.Parent != who || tail.Parent != mid {
		t.Error("result has wrong parent links")
	}
	if mid.Ord != 1 || who.Ord != 2 || where.Ord != 3 || tail.Ord != 4 {
		t.Errorf("ordinals %d %d %d %d, want 1 2 3 4", mid.Ord, who.Ord, where.Ord, tail.Ord)
	}
	for _, n := range []*xmldm.Node{mid, who, where, tail} {
		n.Attrs = append(n.Attrs, xmldm.Attr{Name: "x", Value: "!"})
		n.Children = append(n.Children, xmldm.String("!"))
	}
	want := `<r id="2" x="!"><who k="Cambridge" x="!">Alan Turing<where x="!">Cambridge!</where>!</who><tail x="!">!</tail>!</r>`
	if got := mid.String(); got != want {
		t.Errorf("after appends the result reads %s, want %s", got, want)
	}
	for _, i := range []int{0, 2} {
		if got := row(i).String(); got != before[i] {
			t.Errorf("appending to result 1 changed result %d: %s, was %s", i, got, before[i])
		}
	}
}

// TestTupleSpliceCopiesBoundNodes: a registered function that wraps a
// bound element of a shared XML source in a tuple, spliced by CONSTRUCT,
// must neither re-parent the source's element nor put it into the result
// — from concurrent queries, under -race.
func TestTupleSpliceCopiesBoundNodes(t *testing.T) {
	doc := mustParse(t, `<bib><book year="1994"><title>T</title></book><book><title>U</title><note>n</note></book></bib>`)
	xmldm.Finalize(doc)
	cat := catalog.New()
	if err := cat.AddSource(catalog.NewStaticSource("books", doc)); err != nil {
		t.Fatal(err)
	}
	e := New(cat, Config{})
	e.RegisterFunc("wrap", func(args []xmldm.Value) (xmldm.Value, error) {
		return xmldm.NewTuple(
			xmldm.Field{Name: "book", Value: args[0]},
			xmldm.Field{Name: "all", Value: xmldm.NewCollection(args[0], xmldm.String("x"))},
		), nil
	})
	source := map[*xmldm.Node]bool{}
	doc.Walk(func(n *xmldm.Node) bool { source[n] = true; return true })
	fingerprint := func() string {
		var sb strings.Builder
		doc.Walk(func(n *xmldm.Node) bool {
			fmt.Fprintf(&sb, "%p %s parent=%p ord=%d\n", n, n.Name, n.Parent, n.Ord)
			return true
		})
		return sb.String()
	}
	before := fingerprint()

	const q = `WHERE <book><title>$t</title></book> ELEMENT_AS $e IN "books" CONSTRUCT <r>{ wrap($e) }</r>`
	want := `<r><tuple><book><book year="1994"><title>T</title></book></book><all><book year="1994"><title>T</title></book>x</all></tuple></r>`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := e.Query(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Values) != 2 {
					t.Errorf("%d results, want 2", len(res.Values))
					return
				}
				if got := res.Values[0].(*xmldm.Node).String(); got != want {
					t.Errorf("first result %s, want %s", got, want)
				}
				for _, v := range res.Values {
					v.(*xmldm.Node).Walk(func(n *xmldm.Node) bool {
						if source[n] {
							t.Errorf("the result holds the source's <%s> itself", n.Name)
							return false
						}
						return true
					})
				}
			}
		}()
	}
	wg.Wait()
	if after := fingerprint(); after != before {
		t.Errorf("queries changed the source document\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
