// Package xmldm implements the Nimble data model: a hybrid of XML's
// ordered, semi-structured element trees and the typed tuples and
// collections of relational and hierarchical data.
//
// The paper (§3.1) argues that a data integration product needs a model
// that "can certainly accommodate XML, but would let us deal efficiently
// with the types of data that we expected to see from users most
// frequently (e.g., relational, hierarchical)". Accordingly the model has
// four shapes:
//
//   - atoms: Null, String, Int, Float, Bool, Date — typed scalar values,
//     so relational columns keep their types instead of degrading to text;
//   - Tuple: an ordered sequence of named fields, the natural image of a
//     relational row (and of a variable-binding set inside the algebra);
//   - Collection: an ordered sequence of values, the image of a relation
//     or of repeated XML content;
//   - Node: an XML element with attributes and ordered mixed children,
//     carrying a document-order ordinal so that "XML documents are
//     intrinsically ordered" (§4) is respected by sorts and comparisons.
//
// All values are immutable after construction except Nodes during tree
// building (see Builder in build.go).
package xmldm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the shapes a Value can take.
type Kind int

// The kinds, ordered so that atoms sort before composites; Compare uses
// this order for cross-kind comparisons.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
	KindTuple
	KindCollection
	KindNode
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindTuple:
		return "tuple"
	case KindCollection:
		return "collection"
	case KindNode:
		return "node"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is the single interface implemented by every shape in the model.
type Value interface {
	// Kind reports the shape of the value.
	Kind() Kind
	// String renders the value in a human-readable, lossless-for-atoms
	// form. Nodes render as XML.
	String() string
}

// Null is the absent value (SQL NULL, missing XML content).
type Null struct{}

// Kind implements Value.
func (Null) Kind() Kind { return KindNull }

func (Null) String() string { return "null" }

// String is a text atom.
type String string

// Kind implements Value.
func (String) Kind() Kind { return KindString }

func (s String) String() string { return string(s) }

// Int is a 64-bit integer atom.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Float is a 64-bit floating-point atom.
type Float float64

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

func (f Float) String() string { return strconv.FormatFloat(float64(f), 'g', -1, 64) }

// Bool is a boolean atom.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Date is a calendar timestamp atom (UTC, second precision is enough for
// the integration scenarios the paper describes).
type Date time.Time

// Kind implements Value.
func (Date) Kind() Kind { return KindDate }

func (d Date) String() string { return time.Time(d).UTC().Format(time.RFC3339) }

// Field is one named component of a Tuple.
type Field struct {
	Name  string
	Value Value
}

// Tuple is an ordered list of named fields: the image of a relational row
// and the unit of data flowing between algebra operators.
type Tuple struct {
	fields []Field
}

// NewTuple builds a tuple from fields. Field order is preserved; names
// need not be unique, but Get returns the first match.
func NewTuple(fields ...Field) *Tuple {
	return &Tuple{fields: fields}
}

// NewTuples returns n tuples of width fields each, carved from one tuple
// slab and one field slab: tuple i's fields are fields[i*width :
// (i+1)*width], capped at that length, for the caller to fill before the
// tuple is read.
func NewTuples(n, width int) (tuples []Tuple, fields []Field) {
	tuples, fields = make([]Tuple, n), make([]Field, n*width)
	for i := range tuples {
		tuples[i].fields = fields[i*width : (i+1)*width : (i+1)*width]
	}
	return tuples, fields
}

// Kind implements Value.
func (*Tuple) Kind() Kind { return KindTuple }

// Len reports the number of fields.
func (t *Tuple) Len() int { return len(t.fields) }

// Field returns the i-th field.
func (t *Tuple) Field(i int) Field { return t.fields[i] }

// Fields returns the underlying field slice; callers must not modify it.
func (t *Tuple) Fields() []Field { return t.fields }

// Get returns the value of the first field with the given name, or
// (nil, false) if absent.
func (t *Tuple) Get(name string) (Value, bool) {
	for _, f := range t.fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return nil, false
}

// Names returns the field names in order.
func (t *Tuple) Names() []string {
	ns := make([]string, len(t.fields))
	for i, f := range t.fields {
		ns[i] = f.Name
	}
	return ns
}

// With returns a new tuple with the named field appended (or replaced if
// a field of that name already exists): a binding extended by one
// variable, the step of the reference matcher for XML-QL patterns (§3.1).
func (t *Tuple) With(name string, v Value) *Tuple {
	fields := make([]Field, len(t.fields), len(t.fields)+1)
	copy(fields, t.fields)
	for i := range fields {
		if fields[i].Name == name {
			fields[i].Value = v
			return &Tuple{fields: fields}
		}
	}
	return &Tuple{fields: append(fields, Field{Name: name, Value: v})}
}

func (t *Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, f := range t.fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.Name)
		sb.WriteString(": ")
		if f.Value == nil {
			sb.WriteString("nil")
		} else {
			sb.WriteString(f.Value.String())
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Collection is an ordered sequence of values: the image of a relation,
// of a query result, and of repeated XML content.
type Collection struct {
	items []Value
}

// NewCollection builds a collection over items; the slice is retained.
func NewCollection(items ...Value) *Collection {
	return &Collection{items: items}
}

// Kind implements Value.
func (*Collection) Kind() Kind { return KindCollection }

// Len reports the number of items.
func (c *Collection) Len() int { return len(c.items) }

// Item returns the i-th item.
func (c *Collection) Item(i int) Value { return c.items[i] }

// Items returns the underlying slice; callers must not modify it.
func (c *Collection) Items() []Value { return c.items }

func (c *Collection) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range c.items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Attr is one attribute of a Node.
type Attr struct {
	Name  string
	Value string
}

// Node is an XML element: a name, attributes, and ordered mixed children
// (each child is a Value — typically another *Node or a text atom). Ord
// is the element's position in document order, assigned by the Builder or
// parser; Parent supports the upward navigation §4 calls for.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []Value
	Parent   *Node
	Ord      int
}

// Kind implements Value.
func (*Node) Kind() Kind { return KindNode }

// Attr returns the named attribute's value and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the children that are elements, in order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if e, ok := c.(*Node); ok {
			out = append(out, e)
		}
	}
	return out
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if e, ok := c.(*Node); ok && e.Name == name {
			return e
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given name, in order.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if e, ok := c.(*Node); ok && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// Text returns the concatenated text content of the node's subtree — the
// usual XML "string value" of an element.
func (n *Node) Text() string {
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch v := c.(type) {
		case *Node:
			v.appendText(sb)
		case String:
			sb.WriteString(string(v))
		default:
			if v != nil {
				sb.WriteString(v.String())
			}
		}
	}
}

// String renders the node as compact XML.
func (n *Node) String() string {
	var sb strings.Builder
	n.writeXML(&sb)
	return sb.String()
}

func (n *Node) writeXML(sb *strings.Builder) {
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	for _, a := range n.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeAttr(a.Value))
		sb.WriteByte('"')
	}
	if len(n.Children) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	for _, c := range n.Children {
		switch v := c.(type) {
		case *Node:
			v.writeXML(sb)
		case String:
			sb.WriteString(escapeText(string(v)))
		default:
			if v != nil {
				sb.WriteString(escapeText(v.String()))
			}
		}
	}
	sb.WriteString("</")
	sb.WriteString(n.Name)
	sb.WriteByte('>')
}

func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func escapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Walk visits n and every descendant element in document order, stopping
// early if fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if e, ok := c.(*Node); ok {
			if !e.Walk(fn) {
				return false
			}
		}
	}
	return true
}

// CountElements returns the number of elements in n's subtree, n included.
func (n *Node) CountElements() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// ToFloat coerces an atom to float64 for arithmetic; ok is false for
// values with no numeric interpretation.
func ToFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x), true
	case Float:
		return float64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	case String:
		f, err := strconv.ParseFloat(strings.TrimSpace(string(x)), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case *Node:
		f, err := strconv.ParseFloat(strings.TrimSpace(x.Text()), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// ToInt coerces an atom to int64; ok is false for values with no integral
// interpretation (floats truncate).
func ToInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case Int:
		return int64(x), true
	case Float:
		return int64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	case String:
		i, err := strconv.ParseInt(strings.TrimSpace(string(x)), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(string(x)), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	case *Node:
		return ToInt(String(x.Text()))
	default:
		return 0, false
	}
}

// Stringify renders a value as the text a user would expect inside
// constructed XML content: atoms by value, nodes by their text content,
// collections by concatenation.
func Stringify(v Value) string {
	switch x := v.(type) {
	case nil, Null:
		return ""
	case String:
		return string(x)
	case *Node:
		return x.Text()
	case *Collection:
		var sb strings.Builder
		for _, it := range x.Items() {
			sb.WriteString(Stringify(it))
		}
		return sb.String()
	default:
		return v.String()
	}
}

// Truthy reports whether a value counts as true in a boolean context:
// non-empty strings/collections, non-zero numbers, true, any node.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil, Null:
		return false
	case Bool:
		return bool(x)
	case Int:
		return x != 0
	case Float:
		return x != 0 && !math.IsNaN(float64(x))
	case String:
		return x != ""
	case *Collection:
		return x.Len() > 0
	case *Tuple:
		return x.Len() > 0
	default:
		return true
	}
}
