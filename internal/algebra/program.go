package algebra

import (
	"fmt"

	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// Program writes a CONSTRUCT template's result under one binding straight
// into a byte buffer: the bytes xmlparse.Buffer.WriteChild writes for the
// element a Builder builds, without building it. It is compiled once per
// template and indentation. Its static parts are rendered at compile
// time — padding, start tags, literal attributes, escaped literal text and
// end tags, one string wherever they meet — and its holes (a tag variable,
// an attribute value, an expression or a nested query spliced) are
// evaluated per row and escaped into the buffer. It evaluates what Build
// evaluates, in the same order, and fails where Build fails.
//
// A Program is immutable once compiled: any number of queries run one
// concurrently.
type Program struct {
	tmpl   *xmlql.TmplElem
	indent int
	root   *progElem
}

// progElem is an element whose end is decided per row: one with a tag
// variable, or one that may close as <x/> or whose end tag's padding
// depends on what its holes splice.
type progElem struct {
	tagVar string // the variable of a <$t> tag; "" for a literal name
	open   string // padding and "<" + the literal name, or "<" alone
	close  string // "</" + the literal name + ">"
	pad    string // what precedes the end tag after a child element
	attrs  []progOp
	body   []progOp
	// static is what the element's literal content always writes.
	static wrote
}

// wrote records what a run of content wrote into its element: any child
// (the element does not close as <x/>), and a child element (its end tag
// starts a line of its own).
type wrote uint8

const (
	wroteChild wrote = 1 << iota
	wroteElem
)

type opKind uint8

const (
	opLit    opKind = iota // lit, written as it is
	opAttr                 // expr, an attribute value
	opSplice               // expr, spliced as content at depth
	opQuery                // query, each value spliced as content at depth
	opElem                 // elem, an element of its own
	opFail                 // err, what Build fails with
)

type progOp struct {
	kind  opKind
	depth int
	lit   string
	expr  xmlql.Expr
	query *xmlql.Query
	elem  *progElem
	err   error
}

// CompileProgram compiles tmpl for a document indented by indent spaces
// per level (compact when indent <= 0), its result a child of the root
// xmlparse.Buffer.StartDocument began.
func CompileProgram(tmpl *xmlql.TmplElem, indent int) *Program {
	c := progCompiler{indent: indent}
	return &Program{tmpl: tmpl, indent: indent, root: c.elem(tmpl, 1)}
}

// Serves reports whether p is the program of tmpl at indent; a nil p
// serves nothing.
func (p *Program) Serves(tmpl *xmlql.TmplElem, indent int) bool {
	return p != nil && p.tmpl == tmpl && p.indent == indent
}

// Append appends the template's result under b to dst and returns it. On
// an error it returns the bytes it appended to, with part of the result
// written: xmlparse.Buffer.AppendChild drops them.
func (p *Program) Append(dst []byte, ctx *Context, b Binding) ([]byte, error) {
	return p.elem(dst, ctx, p.root, b)
}

func (p *Program) elem(dst []byte, ctx *Context, e *progElem, b Binding) ([]byte, error) {
	var name string
	if e.tagVar != "" {
		v, ok := b.Get(e.tagVar)
		if !ok {
			return dst, fmt.Errorf("algebra: construct tag variable $%s is unbound", e.tagVar)
		}
		if name = xmldm.Stringify(v); name == "" {
			return dst, fmt.Errorf("algebra: construct tag variable $%s is empty", e.tagVar)
		}
	}
	dst = append(append(dst, e.open...), name...)
	dst, _, err := p.run(dst, ctx, e.attrs, b)
	if err != nil {
		return dst, err
	}
	dst = append(dst, '>')
	mark := len(dst)
	dst, w, err := p.run(dst, ctx, e.body, b)
	if err != nil {
		return dst, err
	}
	w |= e.static
	if w&wroteChild == 0 {
		return append(dst[:mark-1], "/>"...), nil
	}
	if w&wroteElem != 0 {
		dst = append(dst, e.pad...)
	}
	if e.tagVar == "" {
		return append(dst, e.close...), nil
	}
	return append(append(append(dst, "</"...), name...), '>'), nil
}

// run writes ops and reports what their content wrote.
func (p *Program) run(dst []byte, ctx *Context, ops []progOp, b Binding) ([]byte, wrote, error) {
	var w wrote
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opLit:
			dst = append(dst, op.lit...)
		case opAttr:
			v, err := Eval(ctx, op.expr, b)
			if err != nil {
				return dst, w, err
			}
			dst = xmlparse.AppendEscaped(dst, xmldm.Stringify(v))
		case opSplice:
			v, err := Eval(ctx, op.expr, b)
			if err != nil {
				return dst, w, err
			}
			dst = p.splice(dst, &w, v, op.depth)
		case opQuery:
			if ctx == nil || ctx.SubqueryEval == nil {
				return dst, w, fmt.Errorf("algebra: nested query requires a subquery evaluator")
			}
			vals, err := ctx.SubqueryEval(op.query, b)
			if err != nil {
				return dst, w, err
			}
			for _, v := range vals {
				dst = p.splice(dst, &w, v, op.depth)
			}
		case opElem:
			var err error
			if dst, err = p.elem(dst, ctx, op.elem, b); err != nil {
				return dst, w, err
			}
		case opFail:
			return dst, w, op.err
		}
	}
	return dst, w, nil
}

// splice writes a computed value as content at depth, as Builder.splice
// adds it and the serializer writes it: an element (a tuple as a <tuple>
// element) as its subtree, a collection item by item, an atom as text;
// Null and "" write nothing and are no child.
func (p *Program) splice(dst []byte, w *wrote, v xmldm.Value, depth int) []byte {
	switch x := v.(type) {
	case nil, xmldm.Null:
		return dst
	case *xmldm.Node:
		*w |= wroteChild | wroteElem
		return xmlparse.AppendElement(dst, x, p.indent, depth)
	case *xmldm.Collection:
		for _, it := range x.Items() {
			dst = p.splice(dst, w, it, depth)
		}
		return dst
	case *xmldm.Tuple:
		*w |= wroteChild | wroteElem
		return xmlparse.AppendElement(dst, xmldm.TupleToNode("tuple", x), p.indent, depth)
	case xmldm.String:
		if x == "" {
			return dst
		}
		*w |= wroteChild
		return xmlparse.AppendEscaped(dst, string(x))
	default:
		*w |= wroteChild
		return xmlparse.AppendEscaped(dst, v.String())
	}
}

type progCompiler struct{ indent int }

func (c *progCompiler) pad(depth int) string {
	return string(xmlparse.AppendPad(nil, c.indent, depth))
}

// elem compiles t, written at depth, as an element of its own.
func (c *progCompiler) elem(t *xmlql.TmplElem, depth int) *progElem {
	e := &progElem{tagVar: t.TagVar, pad: c.pad(depth), static: staticWrote(t)}
	e.open = e.pad + "<"
	if t.TagVar == "" {
		e.open += t.Tag
		e.close = "</" + t.Tag + ">"
	}
	c.attrs(&e.attrs, t)
	for _, item := range t.Content {
		c.item(&e.body, item, depth+1)
	}
	return e
}

// staticWrote is what t's literal content always writes: a literal text
// or child element is a child, and a child element is one too.
func staticWrote(t *xmlql.TmplElem) wrote {
	var w wrote
	for _, item := range t.Content {
		switch item.(type) {
		case *xmlql.TmplChild:
			w |= wroteChild | wroteElem
		case *xmlql.TmplText:
			w |= wroteChild
		}
	}
	return w
}

// holed reports whether t's own content holds a hole, which may splice
// an element into it.
func holed(t *xmlql.TmplElem) bool {
	for _, item := range t.Content {
		switch item.(type) {
		case *xmlql.TmplExpr, *xmlql.TmplQuery:
			return true
		}
	}
	return false
}

// item compiles one content item written at depth.
func (c *progCompiler) item(ops *[]progOp, item xmlql.TmplContent, depth int) {
	switch it := item.(type) {
	case *xmlql.TmplChild:
		t := it.Elem
		w := staticWrote(t)
		// A child whose end is the same on every row is written inline:
		// its holes cannot change what its parent wrote either, since
		// the parent holds a child element already.
		if t.TagVar != "" || w&wroteChild == 0 || w&wroteElem == 0 && c.indent > 0 && holed(t) {
			*ops = append(*ops, progOp{kind: opElem, elem: c.elem(t, depth)})
			return
		}
		pad := c.pad(depth)
		c.lit(ops, pad+"<"+t.Tag)
		c.attrs(ops, t)
		c.lit(ops, ">")
		for _, sub := range t.Content {
			c.item(ops, sub, depth+1)
		}
		if w&wroteElem != 0 {
			c.lit(ops, pad)
		}
		c.lit(ops, "</"+t.Tag+">")
	case *xmlql.TmplText:
		c.lit(ops, string(xmlparse.AppendEscaped(nil, it.Text)))
	case *xmlql.TmplExpr:
		*ops = append(*ops, progOp{kind: opSplice, expr: it.Expr, depth: depth})
	case *xmlql.TmplQuery:
		*ops = append(*ops, progOp{kind: opQuery, query: it.Query, depth: depth})
	default:
		*ops = append(*ops, progOp{kind: opFail, err: fmt.Errorf("algebra: unknown template content %T", item)})
	}
}

// attrs compiles t's attributes: a literal value is rendered now, any
// other is a hole between its rendered name and closing quote.
func (c *progCompiler) attrs(ops *[]progOp, t *xmlql.TmplElem) {
	for _, a := range t.Attrs {
		if lit, ok := a.Value.(*xmlql.LitExpr); ok {
			if v, err := Eval(nil, lit, nil); err == nil {
				c.lit(ops, " "+a.Name+`="`+string(xmlparse.AppendEscaped(nil, xmldm.Stringify(v)))+`"`)
				continue
			}
		}
		c.lit(ops, " "+a.Name+`="`)
		*ops = append(*ops, progOp{kind: opAttr, expr: a.Value})
		c.lit(ops, `"`)
	}
}

// lit appends s to ops, joining it to a literal that ends them.
func (c *progCompiler) lit(ops *[]progOp, s string) {
	if n := len(*ops); n > 0 && (*ops)[n-1].kind == opLit {
		(*ops)[n-1].lit += s
		return
	}
	*ops = append(*ops, progOp{kind: opLit, lit: s})
}
