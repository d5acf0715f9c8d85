package algebra

import (
	"fmt"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// BuildResult instantiates a CONSTRUCT template under one binding and
// returns the constructed element: a Builder for one result.
func BuildResult(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	return NewBuilder(tmpl, 1).Build(ctx, b)
}

// Builder instantiates one CONSTRUCT template under a run of bindings.
// The template's shape is counted once — one element per TmplElem, and
// for each element one child slot per content item and its attributes —
// and every result's elements, Children and Attrs are carved from three
// slabs sized for rows results: three allocations per rows results
// whatever the template, refilled for another rows only when Build is
// called more often. Every sub-slice is capped at its own length
// (CopyNode's rule), so an append past it — a spliced collection or
// nested query, or a caller editing the result — reallocates instead of
// writing into a neighbour. Parent and Ord are assigned in preorder while
// building; a result into which a node was copied is finalized
// afterwards, since CopyNode leaves Ord unset.
//
// A Builder serves answers that stay materialized: an answer written
// while it is built never becomes a tree (Program).
//
// Nodes spliced from bindings are deep-copied: constructed trees own
// their children, and the source documents must never be mutated (the
// paper's virtual integration leaves "the source data unchanged", §3.2).
// A retained result keeps its whole slab alive.
type Builder struct {
	tmpl                   *xmlql.TmplElem
	rows                   int
	nNodes, nSlots, nAttrs int // per result
	slabs                      // what is left of the slabs; results are carved from its front
	// ord is the last ordinal assigned in the result being built; copied
	// records that a splice copied a node into it.
	ord    int
	copied bool
}

type slabs struct {
	nodes []xmldm.Node
	slots []xmldm.Value
	attrs []xmldm.Attr
}

// NewBuilder returns a Builder for tmpl whose slabs hold rows results.
func NewBuilder(tmpl *xmlql.TmplElem, rows int) *Builder {
	bld := &Builder{tmpl: tmpl, rows: max(rows, 1)}
	bld.count(tmpl)
	return bld
}

func (bld *Builder) count(t *xmlql.TmplElem) {
	bld.nNodes++
	bld.nSlots += len(t.Content)
	bld.nAttrs += len(t.Attrs)
	for _, item := range t.Content {
		if c, ok := item.(*xmlql.TmplChild); ok {
			bld.count(c.Elem)
		}
	}
}

// Build instantiates the template under one binding.
func (bld *Builder) Build(ctx *Context, b Binding) (*xmldm.Node, error) {
	// A result that failed part way leaves a partly used slab; the check
	// is for a whole result's worth, not for a count of calls.
	if len(bld.nodes) < bld.nNodes || len(bld.slots) < bld.nSlots || len(bld.attrs) < bld.nAttrs {
		bld.slabs = slabs{nodes: make([]xmldm.Node, bld.rows*bld.nNodes)}
		if bld.nSlots > 0 {
			bld.slots = make([]xmldm.Value, bld.rows*bld.nSlots)
		}
		if bld.nAttrs > 0 {
			bld.attrs = make([]xmldm.Attr, bld.rows*bld.nAttrs)
		}
	}
	bld.ord, bld.copied = 0, false
	n, err := bld.elem(ctx, bld.tmpl, b, nil)
	if err != nil {
		return nil, err
	}
	if bld.copied {
		xmldm.Finalize(n)
	}
	return n, nil
}

func (bld *Builder) elem(ctx *Context, tmpl *xmlql.TmplElem, b Binding, parent *xmldm.Node) (*xmldm.Node, error) {
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
	n := &bld.nodes[0]
	bld.nodes = bld.nodes[1:]
	bld.ord++
	*n = xmldm.Node{Name: name, Parent: parent, Ord: bld.ord}
	if k := len(tmpl.Attrs); k > 0 {
		n.Attrs, bld.attrs = bld.attrs[:0:k], bld.attrs[k:]
		for _, a := range tmpl.Attrs {
			v, err := Eval(ctx, a.Value, b)
			if err != nil {
				return nil, err
			}
			n.Attrs = append(n.Attrs, xmldm.Attr{Name: a.Name, Value: xmldm.Stringify(v)})
		}
	}
	// Most template items yield exactly one child; spliced collections
	// and nested queries grow past the slots reserved.
	if k := len(tmpl.Content); k > 0 {
		n.Children, bld.slots = bld.slots[:0:k], bld.slots[k:]
	}
	for _, item := range tmpl.Content {
		switch it := item.(type) {
		case *xmlql.TmplChild:
			child, err := bld.elem(ctx, it.Elem, b, n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		case *xmlql.TmplText:
			n.Children = append(n.Children, xmldm.String(it.Text))
		case *xmlql.TmplExpr:
			v, err := Eval(ctx, it.Expr, b)
			if err != nil {
				return nil, err
			}
			bld.splice(n, v)
		case *xmlql.TmplQuery:
			if ctx == nil || ctx.SubqueryEval == nil {
				return nil, fmt.Errorf("algebra: nested query requires a subquery evaluator")
			}
			vals, err := ctx.SubqueryEval(it.Query, b)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				bld.splice(n, v)
			}
		default:
			return nil, fmt.Errorf("algebra: unknown template content %T", item)
		}
	}
	return n, nil
}

// splice appends a computed value into constructed content: nodes are
// deep-copied, collections splice item by item, nulls vanish, atoms
// become text, and a tuple becomes a <tuple> element whose nodes are
// copies too.
func (bld *Builder) splice(n *xmldm.Node, v xmldm.Value) {
	switch x := v.(type) {
	case nil, xmldm.Null:
		// nothing
	case *xmldm.Node:
		c := CopyNode(x)
		c.Parent = n
		n.Children = append(n.Children, c)
		bld.copied = true
	case *xmldm.Collection:
		for _, it := range x.Items() {
			bld.splice(n, it)
		}
	case *xmldm.Tuple:
		// TupleToNode's element holds the fields' nodes by reference;
		// copying it takes them off their source tree.
		c := CopyNode(xmldm.TupleToNode("tuple", x))
		c.Parent = n
		n.Children = append(n.Children, c)
		bld.copied = true
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
