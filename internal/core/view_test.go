package core

import (
	"bytes"
	"testing"

	"repro/internal/exec"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

func mustParse(t *testing.T, src string) *xmldm.Node {
	t.Helper()
	n, err := xmlparse.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestViewSerializesLikeDocument holds the no-copy root to the copying
// one: whatever the result, rendering View is byte for byte rendering
// Document, through both serializer entry points and at both indents.
func TestViewSerializesLikeDocument(t *testing.T) {
	incomplete := exec.Completeness{Statuses: []exec.SourceStatus{
		{Source: "crmdb"}, {Source: "tickets", Err: "offline"}, {Source: "staff", Err: "timeout"},
	}}
	nested := mustParse(t, `<row id="7" note="a&quot;b"><contact><name>Ada &amp; Co</name><city>New
York</city></contact><status><tier>gold</tier><empty/></status>tail</row>`)
	spare := make([]xmldm.Value, 1, 8) // spare capacity must stay out of the view
	spare[0] = mustParse(t, `<r>1</r>`)
	cases := []struct {
		name string
		res  Result
	}{
		{"complete", Result{Values: []xmldm.Value{mustParse(t, `<r>Ada</r>`), mustParse(t, `<r>Alan</r>`)}, Completeness: exec.Completeness{Complete: true}}},
		{"incomplete", Result{Values: []xmldm.Value{mustParse(t, `<r>Ada</r>`)}, Completeness: incomplete}},
		{"incomplete without a failed source", Result{Values: []xmldm.Value{mustParse(t, `<r/>`)}}},
		{"empty", Result{Completeness: exec.Completeness{Complete: true}}},
		{"empty incomplete", Result{Completeness: incomplete}},
		{"atoms", Result{Values: []xmldm.Value{xmldm.String("a<b"), xmldm.Int(42), xmldm.Float(2.5), xmldm.Bool(true), xmldm.Null{}, nil}, Completeness: exec.Completeness{Complete: true}}},
		{"atoms beside elements", Result{Values: []xmldm.Value{xmldm.String("lead"), nested, xmldm.Int(1)}, Completeness: exec.Completeness{Complete: true}}},
		{"nested", Result{Values: []xmldm.Value{nested, nested}, Completeness: exec.Completeness{Complete: true}}},
		{"spare capacity", Result{Values: spare, Completeness: exec.Completeness{Complete: true}}},
	}
	for _, c := range cases {
		for _, indent := range []int{0, 2} {
			want := xmlparse.SerializeString(c.res.Document(), indent)
			if got := xmlparse.SerializeString(c.res.View(), indent); got != want {
				t.Errorf("%s, indent %d: SerializeString(View) =\n%s\nwant\n%s", c.name, indent, got, want)
			}
			var viaWriter, wantWriter bytes.Buffer
			if err := xmlparse.Serialize(&viaWriter, c.res.View(), indent); err != nil {
				t.Fatal(err)
			}
			if err := xmlparse.Serialize(&wantWriter, c.res.Document(), indent); err != nil {
				t.Fatal(err)
			}
			if viaWriter.String() != wantWriter.String() {
				t.Errorf("%s, indent %d: Serialize(View) =\n%s\nwant\n%s", c.name, indent, viaWriter.String(), wantWriter.String())
			}
		}
	}
}

// TestViewSharesAndDocumentCopies pins who owns what: the view's children
// are the result values themselves, cut off from Values' spare capacity;
// the document's are copies with their own parent links and ordinals.
func TestViewSharesAndDocumentCopies(t *testing.T) {
	vals := make([]xmldm.Value, 2, 8)
	vals[0], vals[1] = mustParse(t, `<r><a>1</a></r>`), mustParse(t, `<r><a>2</a></r>`)
	res := Result{Values: vals, Completeness: exec.Completeness{Complete: true}}

	view := res.View()
	if len(view.Children) != 2 || cap(view.Children) != 2 {
		t.Errorf("view children len %d cap %d, want 2 and 2", len(view.Children), cap(view.Children))
	}
	for i, c := range view.Children {
		if c != vals[i] {
			t.Errorf("view child %d is not the result value itself", i)
		}
	}
	view.Children = append(view.Children, xmldm.String("x"))
	if got := vals[:3][2]; got != nil {
		t.Errorf("append to the view's children wrote %v into Values' spare capacity", got)
	}

	doc := res.Document()
	for i, c := range doc.Children {
		n := c.(*xmldm.Node)
		if n == vals[i] {
			t.Errorf("document child %d is the shared value, not a copy", i)
		}
		if n.Parent != doc || n.Children[0].(*xmldm.Node).Parent != n {
			t.Errorf("document child %d has wrong parent links", i)
		}
	}
	if doc.Ord != 1 || doc.Children[1].(*xmldm.Node).Ord != 4 {
		t.Errorf("document is not numbered in document order: root %d, second row %d", doc.Ord, doc.Children[1].(*xmldm.Node).Ord)
	}
	if n := vals[0].(*xmldm.Node); n.Parent != nil || n.Ord != 1 {
		t.Errorf("Document touched the shared value: parent %v ord %d", n.Parent, n.Ord)
	}
}
