package algebra

import (
	"fmt"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// BuildResult instantiates a CONSTRUCT template under one binding and
// returns the constructed element. Nodes spliced from bindings are
// deep-copied: constructed trees own their children, and the source
// documents must never be mutated (the paper's virtual integration
// leaves "the source data unchanged", §3.2).
func BuildResult(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	n, err := buildElem(ctx, tmpl, b)
	if err != nil {
		return nil, err
	}
	xmldm.Finalize(n)
	return n, nil
}

func buildElem(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	name := tmpl.Tag
	if tmpl.TagVar != "" {
		v, ok := b.Get(tmpl.TagVar)
		if !ok {
			return nil, fmt.Errorf("algebra: construct tag variable $%s is unbound", tmpl.TagVar)
		}
		name = xmldm.Stringify(v)
		if name == "" {
			return nil, fmt.Errorf("algebra: construct tag variable $%s is empty", tmpl.TagVar)
		}
	}
	n := &xmldm.Node{Name: name}
	if len(tmpl.Attrs) > 0 {
		n.Attrs = make([]xmldm.Attr, 0, len(tmpl.Attrs))
	}
	for _, a := range tmpl.Attrs {
		v, err := Eval(ctx, a.Value, b)
		if err != nil {
			return nil, err
		}
		n.Attrs = append(n.Attrs, xmldm.Attr{Name: a.Name, Value: xmldm.Stringify(v)})
	}
	// Most template items yield exactly one child; spliced collections
	// and nested queries grow past the estimate.
	if len(tmpl.Content) > 0 {
		n.Children = make([]xmldm.Value, 0, len(tmpl.Content))
	}
	for _, item := range tmpl.Content {
		switch it := item.(type) {
		case *xmlql.TmplChild:
			child, err := buildElem(ctx, it.Elem, b)
			if err != nil {
				return nil, err
			}
			child.Parent = n
			n.Children = append(n.Children, child)
		case *xmlql.TmplText:
			n.Children = append(n.Children, xmldm.String(it.Text))
		case *xmlql.TmplExpr:
			v, err := Eval(ctx, it.Expr, b)
			if err != nil {
				return nil, err
			}
			spliceValue(n, v)
		case *xmlql.TmplQuery:
			if ctx == nil || ctx.SubqueryEval == nil {
				return nil, fmt.Errorf("algebra: nested query requires a subquery evaluator")
			}
			vals, err := ctx.SubqueryEval(it.Query, b)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				spliceValue(n, v)
			}
		default:
			return nil, fmt.Errorf("algebra: unknown template content %T", item)
		}
	}
	return n, nil
}

// spliceValue appends a computed value into constructed content: nodes
// are deep-copied, collections splice item by item, nulls vanish, atoms
// become text.
func spliceValue(n *xmldm.Node, v xmldm.Value) {
	switch x := v.(type) {
	case nil, xmldm.Null:
		// nothing
	case *xmldm.Node:
		c := CopyNode(x)
		c.Parent = n
		n.Children = append(n.Children, c)
	case *xmldm.Collection:
		for _, it := range x.Items() {
			spliceValue(n, it)
		}
	case *xmldm.Tuple:
		c := xmldm.TupleToNode("tuple", x)
		c.Parent = n
		n.Children = append(n.Children, c)
	case xmldm.String:
		if x != "" {
			n.Children = append(n.Children, v) // v, not x: already boxed
		}
	default:
		n.Children = append(n.Children, xmldm.String(v.String()))
	}
}

// CopyNode returns a deep copy of a node subtree with fresh parent
// pointers (ordinals are assigned when the enclosing result is
// finalized). The copy is carved from three slabs sized by a counting
// pass — nodes, child slots, attributes — with every sub-slice capped at
// its own length, so copying costs three allocations whatever the size
// of the tree and the copy's nodes can still be appended to one by one.
func CopyNode(n *xmldm.Node) *xmldm.Node {
	var c treeCopier
	c.count(n)
	c.nodes = make([]xmldm.Node, c.nNodes)
	c.slots = make([]xmldm.Value, c.nSlots)
	if c.nAttrs > 0 {
		c.attrs = make([]xmldm.Attr, c.nAttrs)
	}
	return c.copy(n, nil)
}

type treeCopier struct {
	nNodes, nSlots, nAttrs int
	nodes                  []xmldm.Node
	slots                  []xmldm.Value
	attrs                  []xmldm.Attr
}

func (c *treeCopier) count(n *xmldm.Node) {
	c.nNodes++
	c.nSlots += len(n.Children)
	c.nAttrs += len(n.Attrs)
	for _, child := range n.Children {
		if e, ok := child.(*xmldm.Node); ok {
			c.count(e)
		}
	}
}

func (c *treeCopier) copy(n, parent *xmldm.Node) *xmldm.Node {
	out := &c.nodes[0]
	c.nodes = c.nodes[1:]
	out.Name, out.Parent = n.Name, parent
	if k := len(n.Attrs); k > 0 {
		out.Attrs, c.attrs = c.attrs[:k:k], c.attrs[k:]
		copy(out.Attrs, n.Attrs)
	}
	if k := len(n.Children); k > 0 {
		out.Children, c.slots = c.slots[:k:k], c.slots[k:]
		for i, child := range n.Children {
			if e, ok := child.(*xmldm.Node); ok {
				out.Children[i] = c.copy(e, out)
			} else {
				out.Children[i] = child
			}
		}
	}
	return out
}

// ConstructAll builds one result per binding.
func ConstructAll(ctx *Context, tmpl *xmlql.TmplElem, bindings []Binding) ([]xmldm.Value, error) {
	out := make([]xmldm.Value, 0, len(bindings))
	for _, b := range bindings {
		n, err := BuildResult(ctx, tmpl, b)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
