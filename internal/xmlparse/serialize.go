package xmlparse

import (
	"io"
	"sync"
	"unicode/utf8"

	"repro/internal/xmldm"
)

// maxPooledBuffer is the largest buffer Release keeps: a rare huge answer
// must not pin its memory in the pool for every later small one.
const maxPooledBuffer = 4 << 20

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// Buffer is a pooled byte buffer that element trees serialize into. It is
// how Serialize, SerializeString and the HTTP front end all render XML:
// the bytes are appended once, in place, and handed to the socket (or
// copied into the returned string) without an intermediate string.
// Serialization reads only Name, Attrs and Children, so it is safe on
// trees shared between goroutines and on roots that were never finalized.
type Buffer struct {
	b []byte
}

// NewBuffer takes an empty buffer from the pool; Release returns it.
func NewBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Release returns the buffer to the pool. The bytes handed out by Bytes
// must not be used afterwards.
func (b *Buffer) Release() {
	if cap(b.b) > maxPooledBuffer {
		return
	}
	b.b = b.b[:0]
	bufferPool.Put(b)
}

// Bytes returns the serialized bytes; they are valid until Release.
func (b *Buffer) Bytes() []byte { return b.b }

// WriteNode appends n as XML, indented by indent spaces per level
// (compact when indent <= 0).
func (b *Buffer) WriteNode(n *xmldm.Node, indent int) {
	b.b = appendNode(b.b, len(b.b), n, indent, 0)
}

// Serialize writes n as XML to w, optionally indented. indent <= 0 means
// compact output.
func Serialize(w io.Writer, n *xmldm.Node, indent int) error {
	buf := NewBuffer()
	defer buf.Release()
	buf.WriteNode(n, indent)
	if indent > 0 {
		buf.b = append(buf.b, '\n')
	}
	_, err := w.Write(buf.b)
	return err
}

// SerializeString renders n as an XML string, indented by indent spaces
// per level (compact when indent <= 0).
func SerializeString(n *xmldm.Node, indent int) string {
	buf := NewBuffer()
	defer buf.Release()
	buf.WriteNode(n, indent)
	return string(buf.b)
}

// appendNode appends n's XML to dst. start is where this document began
// in dst: every element but the first starts on a new line when indenting.
func appendNode(dst []byte, start int, n *xmldm.Node, indent, depth int) []byte {
	dst = appendPad(dst, start, indent, depth)
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	if len(n.Children) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	onlyText := true
	for _, c := range n.Children {
		switch v := c.(type) {
		case *xmldm.Node:
			onlyText = false
			dst = appendNode(dst, start, v, indent, depth+1)
		case xmldm.String:
			dst = appendEscaped(dst, string(v))
		default:
			dst = appendEscaped(dst, xmldm.Stringify(v))
		}
	}
	if !onlyText {
		dst = appendPad(dst, start, indent, depth)
	}
	dst = append(dst, "</"...)
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

func appendPad(dst []byte, start, indent, depth int) []byte {
	if indent <= 0 {
		return dst
	}
	if len(dst) > start {
		dst = append(dst, '\n')
	}
	for i := depth * indent; i > 0; i-- {
		dst = append(dst, ' ')
	}
	return dst
}

// appendEscaped appends s escaped exactly as encoding/xml.EscapeText
// escapes it (the same in text and in attribute position): the five
// markup characters and tab, LF and CR become references, and bytes that
// are not valid UTF-8 or not XML characters become U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		switch {
		case c >= utf8.RuneSelf:
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || width != 1) && isXMLChar(r) {
				i += width
				continue
			}
			esc = "�"
		case c == '"':
			esc = "&#34;"
		case c == '\'':
			esc = "&#39;"
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\t':
			esc = "&#x9;"
		case c == '\n':
			esc = "&#xA;"
		case c == '\r':
			esc = "&#xD;"
		case c < 0x20:
			esc = "�"
		default:
			i++
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// isXMLChar reports whether a rune of two or more bytes is in the XML
// Char production (section 2.2 of the XML 1.0 specification).
func isXMLChar(r rune) bool {
	return r <= 0xD7FF || 0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= 0x10FFFF
}
