package algebra

import (
	"fmt"

	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// Program is a CONSTRUCT template compiled once per template and
// indentation: the one evaluator of the template, which writes a result
// under one binding into either of two sinks — straight into a byte
// buffer (Append: the bytes xmlparse.Buffer.WriteChild writes for the
// result's tree, without building it) or as a node tree (Builder). Its
// static parts are rendered at compile time — padding, start tags,
// literal attributes, escaped literal text and end tags, one string
// wherever they meet, each also recording what it stands for as nodes —
// and its holes (a tag variable, an attribute value, an expression or a
// nested query spliced) are evaluated per row in template order, by one
// loop for both sinks.
//
// A Program is immutable once compiled: any number of queries run one
// concurrently.
type Program struct {
	indent int
	root   *progElem
	// per is what one result takes of a Builder's slabs.
	per slabSize
}

// progElem is an element whose end is decided per row: one with a tag
// variable, or one that may close as <x/> or whose end tag's padding
// depends on what its holes splice.
type progElem struct {
	t     *xmlql.TmplElem
	open  string   // padding and "<" + the literal name (+ ">" when attrs is empty), or "<" alone
	close string   // "</" + the literal name + ">"
	pad   string   // what precedes the end tag after a child element
	attrs []progOp // ending with the start tag's ">" unless open does
	body  []progOp
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
	opLit    opKind = iota // lit, written as it is; nodes, built so
	opAttr                 // expr, the value of attribute lit
	opSplice               // expr, spliced as content at depth
	opQuery                // query, each value spliced as content at depth
	opElem                 // elem, an element of its own
	opFail                 // err, what the template fails with
)

type progOp struct {
	kind  opKind
	depth int
	lit   string
	nodes []nodeOp
	expr  xmlql.Expr
	query *xmlql.Query
	elem  *progElem
	err   error
}

// nodeOp is what part of a literal stands for in the node sink: an
// element opened (open), a literal attribute (attr, its value val), a
// text, or — none of them set — the open element closed.
type nodeOp struct {
	open      *xmlql.TmplElem
	attr, val string
	text      xmldm.Value
}

// CompileProgram compiles tmpl for a document indented by indent spaces
// per level (compact when indent <= 0), its result a child of the root
// xmlparse.Buffer.StartDocument began.
func CompileProgram(tmpl *xmlql.TmplElem, indent int) *Program {
	c := progCompiler{indent: max(indent, 0)}
	root := c.elem(tmpl, 1)
	return &Program{indent: c.indent, root: root, per: c.per}
}

// Serves reports whether p is the program of tmpl at indent, or at any
// indentation when indent < 0 (the node sink ignores it); a nil p serves
// nothing.
func (p *Program) Serves(tmpl *xmlql.TmplElem, indent int) bool {
	return p != nil && p.root.t == tmpl && (indent < 0 || p.indent == indent)
}

// Append appends the template's result under b to dst and returns it. On
// an error it returns the bytes it appended to, with part of the result
// written: xmlparse.Buffer.AppendChild drops them.
func (p *Program) Append(dst []byte, ctx *Context, b Binding) ([]byte, error) {
	w := writer{ctx: ctx, b: b, indent: p.indent}
	return w.elem(dst, p.root)
}

// writer runs a program under one binding into one sink: the bytes each
// step is handed and returns, or, when tree is set, nodes (treeState),
// the bytes then staying nil. Append's lives on its stack, a Builder's in
// the Builder: nothing holds a pointer to a writer, so a Builder made and
// used in one function stays on that function's stack too.
type writer struct {
	ctx    *Context
	b      Binding
	indent int
	tree   bool
	treeState
}

func (w *writer) elem(dst []byte, e *progElem) ([]byte, error) {
	var name string
	if e.t.TagVar != "" {
		v, ok := w.b.Get(e.t.TagVar)
		if !ok {
			return dst, fmt.Errorf("algebra: construct tag variable $%s is unbound", e.t.TagVar)
		}
		if name = xmldm.Stringify(v); name == "" {
			return dst, fmt.Errorf("algebra: construct tag variable $%s is empty", e.t.TagVar)
		}
	}
	if w.tree {
		w.open(e.t, name)
	} else {
		dst = append(append(dst, e.open...), name...)
	}
	if len(e.attrs) > 0 {
		var err error
		if dst, _, err = w.run(dst, e.attrs); err != nil {
			return dst, err
		}
	}
	mark := len(dst)
	dst, wr, err := w.run(dst, e.body)
	if err != nil {
		return dst, err
	}
	if w.tree {
		w.cur = w.cur.Parent
		return dst, nil
	}
	if wr |= e.static; wr&wroteChild == 0 {
		return append(dst[:mark-1], "/>"...), nil
	}
	if wr&wroteElem != 0 {
		dst = append(dst, e.pad...)
	}
	if name == "" {
		return append(dst, e.close...), nil
	}
	return append(append(append(dst, "</"...), name...), '>'), nil
}

// run evaluates ops and reports what their content wrote.
func (w *writer) run(dst []byte, ops []progOp) ([]byte, wrote, error) {
	var wr wrote
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opLit:
			if w.tree {
				w.replay(op.nodes)
			} else {
				dst = append(dst, op.lit...)
			}
		case opAttr:
			v, err := Eval(w.ctx, op.expr, w.b)
			if err != nil {
				return dst, wr, err
			}
			if s := xmldm.Stringify(v); w.tree {
				w.cur.Attrs = append(w.cur.Attrs, xmldm.Attr{Name: op.lit, Value: s})
			} else {
				dst = xmlparse.AppendEscaped(dst, s)
			}
		case opSplice:
			v, err := Eval(w.ctx, op.expr, w.b)
			if err != nil {
				return dst, wr, err
			}
			dst = w.splice(dst, &wr, v, op.depth)
		case opQuery:
			if w.ctx == nil || w.ctx.SubqueryEval == nil {
				return dst, wr, fmt.Errorf("algebra: nested query requires a subquery evaluator")
			}
			vals, err := w.ctx.SubqueryEval(op.query, w.b)
			if err != nil {
				return dst, wr, err
			}
			for _, v := range vals {
				dst = w.splice(dst, &wr, v, op.depth)
			}
		case opElem:
			var err error
			if dst, err = w.elem(dst, op.elem); err != nil {
				return dst, wr, err
			}
		case opFail:
			return dst, wr, op.err
		}
	}
	return dst, wr, nil
}

// splice adds a computed value as content at depth: an element (a tuple
// as a <tuple> element) as its subtree, a collection item by item, an
// atom as text; Null and "" add nothing and are no child.
func (w *writer) splice(dst []byte, wr *wrote, v xmldm.Value, depth int) []byte {
	switch x := v.(type) {
	case nil, xmldm.Null:
	case *xmldm.Node:
		return w.spliceElem(dst, wr, x, depth)
	case *xmldm.Collection:
		for _, it := range x.Items() {
			dst = w.splice(dst, wr, it, depth)
		}
	case *xmldm.Tuple:
		return w.spliceElem(dst, wr, xmldm.TupleToNode("tuple", x), depth)
	case xmldm.String:
		if x == "" {
			break
		}
		if *wr |= wroteChild; !w.tree {
			return xmlparse.AppendEscaped(dst, string(x))
		}
		w.cur.Children = append(w.cur.Children, v) // v, not x: already boxed
	default:
		if *wr |= wroteChild; !w.tree {
			return xmlparse.AppendEscaped(dst, v.String())
		}
		w.cur.Children = append(w.cur.Children, xmldm.String(v.String()))
	}
	return dst
}

// spliceElem adds n: the node sink a copy of it, since constructed trees
// own their children. A tuple's element holds the fields' nodes by
// reference, and copying takes them off their source tree too.
func (w *writer) spliceElem(dst []byte, wr *wrote, n *xmldm.Node, depth int) []byte {
	if *wr |= wroteChild | wroteElem; !w.tree {
		return xmlparse.AppendElement(dst, n, w.indent, depth)
	}
	c := CopyNode(n)
	c.Parent = w.cur
	w.cur.Children = append(w.cur.Children, c)
	w.copied = true
	return dst
}

type progCompiler struct {
	indent int
	per    slabSize
}

func (c *progCompiler) pad(depth int) string {
	return string(xmlparse.AppendPad(nil, c.indent, depth))
}

// elem compiles t, written at depth, as an element of its own.
func (c *progCompiler) elem(t *xmlql.TmplElem, depth int) *progElem {
	c.per.add(t)
	e := &progElem{t: t, pad: c.pad(depth), static: staticWrote(t)}
	e.open = e.pad + "<"
	if t.TagVar == "" {
		e.open += t.Tag
		e.close = "</" + t.Tag + ">"
	}
	if t.TagVar == "" && len(t.Attrs) == 0 {
		e.open += ">" // nothing to run between the name and ">"
	} else {
		c.attrs(&e.attrs, t)
	}
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
		c.per.add(t)
		pad := c.pad(depth)
		c.lit(ops, pad+"<"+t.Tag, nodeOp{open: t})
		c.attrs(ops, t)
		for _, sub := range t.Content {
			c.item(ops, sub, depth+1)
		}
		if w&wroteElem != 0 {
			c.lit(ops, pad)
		}
		c.lit(ops, "</"+t.Tag+">", nodeOp{})
	case *xmlql.TmplText:
		c.lit(ops, string(xmlparse.AppendEscaped(nil, it.Text)), nodeOp{text: xmldm.String(it.Text)})
	case *xmlql.TmplExpr:
		*ops = append(*ops, progOp{kind: opSplice, expr: it.Expr, depth: depth})
	case *xmlql.TmplQuery:
		*ops = append(*ops, progOp{kind: opQuery, query: it.Query, depth: depth})
	default:
		*ops = append(*ops, progOp{kind: opFail, err: fmt.Errorf("algebra: unknown template content %T", item)})
	}
}

// attrs compiles t's attributes and the start tag's ">": a literal value
// is rendered now, any other is a hole between its rendered name and
// closing quote.
func (c *progCompiler) attrs(ops *[]progOp, t *xmlql.TmplElem) {
	for _, a := range t.Attrs {
		if lit, ok := a.Value.(*xmlql.LitExpr); ok {
			if v, err := Eval(nil, lit, nil); err == nil {
				s := xmldm.Stringify(v)
				c.lit(ops, " "+a.Name+`="`+string(xmlparse.AppendEscaped(nil, s))+`"`, nodeOp{attr: a.Name, val: s})
				continue
			}
		}
		c.lit(ops, " "+a.Name+`="`)
		*ops = append(*ops, progOp{kind: opAttr, lit: a.Name, expr: a.Value})
		c.lit(ops, `"`)
	}
	c.lit(ops, ">")
}

// lit appends s, standing for nodes, to ops, joining it to a literal that
// ends them.
func (c *progCompiler) lit(ops *[]progOp, s string, nodes ...nodeOp) {
	if n := len(*ops); n > 0 && (*ops)[n-1].kind == opLit {
		op := &(*ops)[n-1]
		op.lit += s
		op.nodes = append(op.nodes, nodes...)
		return
	}
	*ops = append(*ops, progOp{kind: opLit, lit: s, nodes: nodes})
}
