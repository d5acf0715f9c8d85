package xmldm

import (
	"fmt"
	"testing"
)

func elemNames(ns []*Node) string {
	out := ""
	for _, n := range ns {
		out += fmt.Sprintf("%s#%d ", n.Name, n.Ord)
	}
	return out
}

// TestElemIndexListsInDocumentOrder: every list is in document order —
// Walk's order — and the attribute list reads the value Attr reads.
func TestElemIndexListsInDocumentOrder(t *testing.T) {
	b := NewBuilder()
	root := b.Elem("t",
		b.Elem("x", Attr{"pri", "high"}, b.Elem("x", Attr{"pri", "low"})),
		b.Elem("y", Attr{"pri", "high"}),
		b.Elem("x", Attr{"pri", "high"}, Attr{"pri", "low"}),
	)
	ix := NewElemIndex(root)
	if ix.Len() != root.CountElements() {
		t.Fatalf("len %d, want %d", ix.Len(), root.CountElements())
	}
	var walked []*Node
	root.Walk(func(n *Node) bool { walked = append(walked, n); return true })
	if got, want := elemNames(ix.All()), elemNames(walked); got != want {
		t.Errorf("All = %s, want %s", got, want)
	}
	for _, c := range []struct {
		got  []*Node
		want string
	}{
		{ix.Named("x"), "x#2 x#3 x#5 "},
		{ix.Named("none"), ""},
		{ix.WithAttr("x", "pri", "high"), "x#2 x#5 "},
		{ix.WithAttr("x", "pri", "low"), "x#3 "}, // x#5's second pri is not the one Attr reads
		{ix.WithAttr("y", "pri", "low"), ""},
	} {
		if got := elemNames(c.got); got != c.want {
			t.Errorf("list = %q, want %q", got, c.want)
		}
	}
	if empty := NewElemIndex(nil); empty.Len() != 0 || empty.Named("x") != nil {
		t.Error("a nil root must index nothing")
	}
}
