package xmlparse

import (
	"bytes"
	"encoding/xml"
	"testing"

	"repro/internal/xmldm"
)

// FuzzParse is the native fuzz target for the XML reader: inputs that
// parse must re-serialize and re-parse to the same element count. Run
// with:
//
//	go test -fuzz=FuzzParse ./internal/xmlparse
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a b="c">text<d/>more</a>`,
		`<r><a>1</a><a>2</a></r>`,
		`<x>&lt;escaped&gt;</x>`,
		`<ns:a xmlns:ns="u"><ns:b/></ns:a>`,
		`<broken>`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src)
		if err != nil {
			return
		}
		out := SerializeString(doc, 0)
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of serialized form failed: %v\nin: %q\nout: %q", err, src, out)
		}
		if back.CountElements() != doc.CountElements() {
			t.Fatalf("element count changed %d -> %d\nin: %q\nout: %q",
				doc.CountElements(), back.CountElements(), src, out)
		}
	})
}

// FuzzSerializeEscape holds the serializer's string-native escaper to
// encoding/xml.EscapeText, byte for byte, in text and in attribute
// position.
func FuzzSerializeEscape(f *testing.F) {
	seeds := []string{
		"", "plain", `"`, `'`, "&", "<", ">", "\t", "\r", "\n", `a"b'c&d<e>f`,
		"\x00", "\x01\x1f", "\x7f", "\xff", "a\xc3", "\xed\xa0\x80", // lone bytes, truncated rune, surrogate
		"\ufffd", "\ufffe", "\uffff", "\ud7ff\ue000", "\U00010000\U0010ffff", "héllo wörld ١٢",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var ref bytes.Buffer
		if err := xml.EscapeText(&ref, []byte(s)); err != nil {
			t.Fatal(err)
		}
		want := `<e a="` + ref.String() + `">` + ref.String() + `</e>`
		n := &xmldm.Node{
			Name:     "e",
			Attrs:    []xmldm.Attr{{Name: "a", Value: s}},
			Children: []xmldm.Value{xmldm.String(s)},
		}
		if got := SerializeString(n, 0); got != want {
			t.Fatalf("escape of %q:\n got %q\nwant %q", s, got, want)
		}
	})
}
