package xmlparse

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmldm"
)

// referenceSerialize is the serializer this package had before it wrote
// into a byte slice: encoding/xml's escaper into a growing buffer. It is
// kept as the oracle for byte identity.
func referenceSerialize(n *xmldm.Node, indent int) string {
	var sb bytes.Buffer
	var write func(n *xmldm.Node, depth int)
	write = func(n *xmldm.Node, depth int) {
		pad := func() {
			if indent > 0 {
				if sb.Len() > 0 {
					sb.WriteByte('\n')
				}
				for i := 0; i < depth*indent; i++ {
					sb.WriteByte(' ')
				}
			}
		}
		pad()
		sb.WriteString("<" + n.Name)
		for _, a := range n.Attrs {
			sb.WriteString(" " + a.Name + `="`)
			xml.EscapeText(&sb, []byte(a.Value))
			sb.WriteByte('"')
		}
		if len(n.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		onlyText := true
		for _, c := range n.Children {
			if e, ok := c.(*xmldm.Node); ok {
				onlyText = false
				write(e, depth+1)
			} else {
				xml.EscapeText(&sb, []byte(xmldm.Stringify(c)))
			}
		}
		if !onlyText {
			pad()
		}
		sb.WriteString("</" + n.Name + ">")
	}
	write(n, 0)
	return sb.String()
}

func TestSerializeMatchesReference(t *testing.T) {
	docs := []string{
		`<a/>`,
		`<a b="c">text<d/>more</a>`,
		`<r><a>1</a><a>2</a><deep><deeper><deepest x="1" y="&lt;&quot;&apos;">v</deepest></deeper></deep></r>`,
		`<x>&lt;escaped&gt; &amp; "quoted" 'single'` + "\ttab\r\nline</x>",
		`<m>lead<e/>mid<e>in</e>tail</m>`,
	}
	var trees []*xmldm.Node
	for _, src := range docs {
		n, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, n)
	}
	// Typed atoms, Null and nil children never come out of the parser.
	trees = append(trees, &xmldm.Node{Name: "atoms", Children: []xmldm.Value{
		xmldm.Int(-7), xmldm.Float(2.5), xmldm.Bool(true), xmldm.Null{}, nil,
		&xmldm.Node{Name: "n", Children: []xmldm.Value{xmldm.String("")}},
		xmldm.NewCollection(xmldm.String("a<"), xmldm.Int(1)),
	}})
	for _, n := range trees {
		for _, indent := range []int{-1, 0, 1, 2, 4} {
			want := referenceSerialize(n, indent)
			if got := SerializeString(n, indent); got != want {
				t.Errorf("indent %d:\n got %q\nwant %q", indent, got, want)
			}
			var w bytes.Buffer
			if err := Serialize(&w, n, indent); err != nil {
				t.Fatal(err)
			}
			if indent > 0 {
				want += "\n"
			}
			if w.String() != want {
				t.Errorf("Serialize, indent %d:\n got %q\nwant %q", indent, w.String(), want)
			}
		}
	}
}

// TestDocumentRootWrittenLast holds StartDocument, WriteChild and
// EndDocument to WriteNode of the whole tree: no children, one and
// several, a root with no attributes, with escaped ones and with a start
// tag longer than the room reserved for it, compact and indented, in a
// fresh buffer and after bytes already written.
func TestDocumentRootWrittenLast(t *testing.T) {
	kids, err := ParseString(`<k><a x="1&amp;2">t<b/></a><c>&lt;</c><d><e><f>deep</f></e></d></k>`)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("source-with-a-long-name/", 4)
	for _, attrs := range [][]xmldm.Attr{
		nil,
		{{Name: "complete", Value: "false"}, {Name: "failed", Value: `crm"db<`}},
		{{Name: "complete", Value: "false"}, {Name: "failed", Value: long}},
	} {
		for n := 0; n <= len(kids.Children); n++ {
			root := &xmldm.Node{Name: "results", Attrs: attrs, Children: kids.Children[:n]}
			for _, indent := range []int{-1, 0, 2} {
				want := SerializeString(root, indent)
				for _, prefix := range []string{"", "earlier bytes"} {
					buf := NewBuffer()
					buf.b = append(buf.b, prefix...)
					buf.StartDocument(indent)
					for _, c := range root.Children {
						buf.WriteChild(c.(*xmldm.Node))
					}
					if got := string(buf.EndDocument(&xmldm.Node{Name: root.Name, Attrs: attrs})); got != want {
						t.Errorf("%d children, attrs %v, indent %d, prefix %q:\n got %q\nwant %q", n, attrs, indent, prefix, got, want)
					}
					if !strings.HasPrefix(string(buf.Bytes()), prefix) {
						t.Errorf("the bytes before the document changed: %q", buf.Bytes())
					}
					buf.Release()
				}
			}
		}
	}
}

// BenchmarkAppendNode serializes a 2000-row answer of bulk-export's shape
// (an attribute, five nested elements and four text values per row, one
// of them needing an escape) indented into a reused buffer.
//
//	go test -run '^$' -bench AppendNode ./internal/xmlparse
func BenchmarkAppendNode(b *testing.B) {
	root := &xmldm.Node{Name: "results"}
	for i := 0; i < 2000; i++ {
		elem := func(name string, children ...xmldm.Value) *xmldm.Node {
			return &xmldm.Node{Name: name, Children: children}
		}
		row := elem("row",
			elem("contact", elem("name", xmldm.String("Customer Number "+strconv.Itoa(i))), elem("city", xmldm.String("San Francisco"))),
			elem("status", elem("tier", xmldm.String("gold & silver"))))
		row.Attrs = []xmldm.Attr{{Name: "id", Value: strconv.Itoa(i)}}
		root.Children = append(root.Children, row)
	}
	buf := NewBuffer()
	buf.WriteNode(root, 2)
	b.SetBytes(int64(len(buf.Bytes())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.b = buf.b[:0]
		buf.WriteNode(root, 2)
	}
}

func TestBufferReuse(t *testing.T) {
	n, err := ParseString(`<a><b>1</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want := SerializeString(n, 2)

	buf := NewBuffer()
	buf.WriteNode(n, 2)
	if string(buf.Bytes()) != want {
		t.Errorf("first use: %q, want %q", buf.Bytes(), want)
	}
	// A second document starts where the first ended, with no line break
	// of its own in front.
	buf.WriteNode(n, 2)
	if string(buf.Bytes()) != want+want {
		t.Errorf("second document in one buffer: %q", buf.Bytes())
	}
	buf.Release()

	if buf := NewBuffer(); len(buf.Bytes()) != 0 {
		t.Errorf("a buffer from the pool holds %d bytes", len(buf.Bytes()))
	}

	// Oversized buffers are dropped, not pooled.
	big := &Buffer{b: make([]byte, 10, maxPooledBuffer+1)}
	big.Release()
	if len(big.b) != 10 {
		t.Error("Release reset a buffer it should have dropped")
	}
}
