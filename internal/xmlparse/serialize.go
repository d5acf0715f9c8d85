package xmlparse

import (
	"io"
	"slices"
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
	// root and indent are the document StartDocument began: where the
	// room it reserved for the root's start tag ends, and the indentation.
	root, indent int
}

// NewBuffer takes an empty buffer from the pool; Release returns it.
func NewBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Release returns the buffer to the pool. The bytes handed out by Bytes
// must not be used afterwards.
func (b *Buffer) Release() {
	if cap(b.b) > maxPooledBuffer {
		return
	}
	*b = Buffer{b: b.b[:0]}
	bufferPool.Put(b)
}

// Bytes returns the serialized bytes; they are valid until Release.
func (b *Buffer) Bytes() []byte { return b.b }

// WriteNode appends n as XML, indented by indent spaces per level
// (compact when indent <= 0).
func (b *Buffer) WriteNode(n *xmldm.Node, indent int) {
	b.b = appendNode(b.b, len(b.b), n, indent, 0)
}

// rootRoom is what StartDocument reserves for the root's start tag:
// enough for `<results complete="false" failed="…">` with a source name
// of up to 28 bytes. EndDocument moves the children for a longer tag.
const rootRoom = 64

// StartDocument begins a document whose root is written last, once its
// attributes are known — a query answer's <results>, whose
// complete="false" only the end of the query can tell. It reserves room
// for the root's start tag; WriteChild appends each child element as it
// is made, and EndDocument writes the root around them. indent is as for
// WriteNode.
func (b *Buffer) StartDocument(indent int) {
	b.b = append(b.b, make([]byte, rootRoom)...)
	b.root, b.indent = len(b.b), indent
}

// WriteChild appends n as the next child element of the root
// StartDocument began.
func (b *Buffer) WriteChild(n *xmldm.Node) {
	b.b = appendNode(b.b, -1, n, b.indent, 1)
}

// Indent is the indentation StartDocument began the document with.
func (b *Buffer) Indent() int { return b.indent }

// AppendChild appends the next child element of the root StartDocument
// began as write renders it: write appends the element to the bytes it is
// handed — as AppendElement, AppendPad and AppendEscaped do, at depth 1 —
// and returns them, also when it fails. A failed write leaves the buffer
// as it was before the call.
func (b *Buffer) AppendChild(write func([]byte) ([]byte, error)) error {
	n := len(b.b)
	out, err := write(b.b)
	if err != nil {
		b.b = out[:n] // keeping whatever the write grew the buffer to
		return err
	}
	b.b = out
	return nil
}

// EndDocument closes the document StartDocument began under root's name
// and attributes and returns its bytes: what WriteNode writes for root
// with the children WriteChild wrote (root's own Children are not read).
// The bytes are valid until Release.
func (b *Buffer) EndDocument(root *xmldm.Node) []byte {
	children := len(b.b) > b.root
	if children {
		b.b = appendPad(b.b, -1, b.indent, 0)
		b.b = appendEndTag(b.b, root.Name)
	}
	// The start tag is rendered past the end, then moved into the room.
	end := len(b.b)
	b.b = appendStartTag(b.b, root)
	if children {
		b.b = append(b.b, '>')
	} else {
		b.b = append(b.b, "/>"...)
	}
	if grow := len(b.b) - end - rootRoom; grow > 0 {
		b.b = slices.Insert(b.b, b.root-rootRoom, make([]byte, grow)...)
		b.root += grow
		end += grow
	}
	start := b.root - (len(b.b) - end)
	copy(b.b[start:], b.b[end:])
	b.b = b.b[:end]
	return b.b[start:]
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
	dst = appendStartTag(dst, n)
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
			dst = AppendEscaped(dst, string(v))
		default:
			dst = AppendEscaped(dst, xmldm.Stringify(v))
		}
	}
	if !onlyText {
		dst = appendPad(dst, start, indent, depth)
	}
	return appendEndTag(dst, n.Name)
}

// AppendElement appends n as an element at depth below the root
// StartDocument began, on a line of its own when indenting: what
// WriteChild writes for a child at depth 1.
func AppendElement(dst []byte, n *xmldm.Node, indent, depth int) []byte {
	return appendNode(dst, -1, n, indent, depth)
}

// AppendPad appends what starts a line at depth below the root
// StartDocument began: a line break and depth*indent spaces when
// indenting, nothing when compact.
func AppendPad(dst []byte, indent, depth int) []byte {
	return appendPad(dst, -1, indent, depth)
}

// appendStartTag appends n's start tag up to its closing bracket: the
// name and the attributes.
func appendStartTag(dst []byte, n *xmldm.Node) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = AppendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	return dst
}

func appendEndTag(dst []byte, name string) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, name...)
	return append(dst, '>')
}

const spaces = "                                                                "

// appendPad starts a line at depth when indenting: a line break, unless
// nothing was written since start, and depth*indent spaces.
func appendPad(dst []byte, start, indent, depth int) []byte {
	if indent <= 0 {
		return dst
	}
	if len(dst) > start {
		dst = append(dst, '\n')
	}
	for n := depth * indent; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}

// AppendEscaped appends s escaped exactly as encoding/xml.EscapeText
// escapes it (the same in text and in attribute position): the five
// markup characters and tab, LF and CR become references, and bytes that
// are not valid UTF-8 or not XML characters become U+FFFD.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if plainByte[s[i]] {
			i++
			continue
		}
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
		default: // the other control characters
			esc = "�"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// plainByte marks the bytes AppendEscaped copies as they are: printable
// ASCII but the five markup characters.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"'&<>` {
		t[c] = false
	}
	return t
}()

// isXMLChar reports whether a rune of two or more bytes is in the XML
// Char production (section 2.2 of the XML 1.0 specification).
func isXMLChar(r rune) bool {
	return r <= 0xD7FF || 0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= 0x10FFFF
}
