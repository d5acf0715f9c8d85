package algebra

import (
	"cmp"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// BuildResult instantiates a CONSTRUCT template under one binding and
// returns the constructed element: the template compiled, then built once.
func BuildResult(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	return CompileProgram(tmpl, 0).Builder(1).Build(ctx, b)
}

// Builder builds a program's results as node trees: the program's node
// sink. Every result's elements, Children and Attrs are carved from three
// slabs, the first sized for rows results: three allocations per slab
// whatever the template. A Builder called more often refills them, each
// time for half as many results again as the last: a caller that does not
// know how many results it builds pays three allocations per refill and
// leaves part of its last slab unused, and one that does (rows) never
// refills. Every sub-slice is capped at its own length
// (CopyNode's rule), so an append past it — a spliced collection or
// nested query, or a caller editing the result — reallocates instead of
// writing into a neighbour. Parent and Ord are assigned in preorder while
// building; a result into which a node was copied is finalized
// afterwards, since CopyNode leaves Ord unset.
//
// A Builder serves answers that stay materialized: an answer given a
// buffer to go into never becomes a tree (Program.Append).
//
// Nodes spliced from bindings are deep-copied: constructed trees own
// their children, and the source documents must never be mutated (the
// paper's virtual integration leaves "the source data unchanged", §3.2).
// A retained result keeps its whole slab alive.
type Builder struct {
	prog *Program
	rows int // what the next slabs hold
	// w is the node sink; its slabs are what is left of the slabs, and
	// results are carved from their front.
	w writer
}

type slabs struct {
	nodes []xmldm.Node
	slots []xmldm.Value
	attrs []xmldm.Attr
}

// slabSize is what a result takes of each slab: one element per TmplElem,
// and for each element one child slot per content item and its attributes.
type slabSize struct{ nodes, slots, attrs int }

func (s *slabSize) add(t *xmlql.TmplElem) {
	s.nodes++
	s.slots += len(t.Content)
	s.attrs += len(t.Attrs)
}

// Builder returns a Builder for p's results whose first slabs hold rows
// results.
func (p *Program) Builder(rows int) *Builder {
	return &Builder{prog: p, rows: max(rows, 1), w: writer{tree: true}}
}

// Build instantiates the template under one binding.
func (bld *Builder) Build(ctx *Context, b Binding) (*xmldm.Node, error) {
	// A result that failed part way leaves a partly used slab; the check
	// is for a whole result's worth, not for a count of calls.
	per, w := bld.prog.per, &bld.w
	if len(w.nodes) < per.nodes || len(w.slots) < per.slots || len(w.attrs) < per.attrs {
		w.slabs = slabs{nodes: make([]xmldm.Node, bld.rows*per.nodes)}
		if per.slots > 0 {
			w.slots = make([]xmldm.Value, bld.rows*per.slots)
		}
		if per.attrs > 0 {
			w.attrs = make([]xmldm.Attr, bld.rows*per.attrs)
		}
		bld.rows += max(bld.rows/2, 1)
	}
	w.ctx, w.b, w.cur, w.ord, w.copied = ctx, b, nil, 0, false
	root := &w.nodes[0] // the first element carved
	_, err := w.elem(nil, bld.prog.root)
	w.ctx, w.b = nil, nil
	if err != nil {
		return nil, err
	}
	if w.copied {
		xmldm.Finalize(root)
	}
	return root, nil
}

// treeState is the node sink's part of a writer: the slabs being carved,
// the element open, the last ordinal assigned, and whether a splice
// copied a node in.
type treeState struct {
	slabs
	cur    *xmldm.Node
	ord    int
	copied bool
}

// open carves t's element, named name (t's own name when ""), from the
// slabs as the last child of the element open (none for the root), and
// opens it.
func (ts *treeState) open(t *xmlql.TmplElem, name string) {
	n := &ts.nodes[0]
	ts.nodes = ts.nodes[1:]
	ts.ord++
	*n = xmldm.Node{Name: cmp.Or(name, t.Tag), Parent: ts.cur, Ord: ts.ord}
	if k := len(t.Attrs); k > 0 {
		n.Attrs, ts.attrs = ts.attrs[:0:k], ts.attrs[k:]
	}
	// Most template items yield exactly one child; spliced collections
	// and nested queries grow past the slots reserved.
	if k := len(t.Content); k > 0 {
		n.Children, ts.slots = ts.slots[:0:k], ts.slots[k:]
	}
	if ts.cur != nil {
		ts.cur.Children = append(ts.cur.Children, n)
	}
	ts.cur = n
}

// replay builds what a literal stands for.
func (ts *treeState) replay(nodes []nodeOp) {
	for i := range nodes {
		switch nd := &nodes[i]; {
		case nd.open != nil:
			ts.open(nd.open, "")
		case nd.attr != "":
			ts.cur.Attrs = append(ts.cur.Attrs, xmldm.Attr{Name: nd.attr, Value: nd.val})
		case nd.text != nil:
			ts.cur.Children = append(ts.cur.Children, nd.text)
		default:
			ts.cur = ts.cur.Parent
		}
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
