package xmldm

// ElemIndex is an element index over a finalized tree that no longer
// changes: every element in document order (root included), the
// elements of each name, and the elements of each name that carry an
// attribute with a given value. A source that serves one stable document
// keeps one, so a pattern's candidate elements are a slice instead of a
// walk. The lists are shared by every reader and must not be modified.
type ElemIndex struct {
	all    []*Node
	byName map[string][]*Node
	byAttr map[attrKey][]*Node
}

type attrKey struct{ elem, attr, value string }

// NewElemIndex indexes the tree rooted at root; a nil root indexes
// nothing.
func NewElemIndex(root *Node) *ElemIndex {
	ix := &ElemIndex{byName: map[string][]*Node{}, byAttr: map[attrKey][]*Node{}}
	if root == nil {
		return ix
	}
	root.Walk(func(n *Node) bool {
		ix.all = append(ix.all, n)
		ix.byName[n.Name] = append(ix.byName[n.Name], n)
		for i, a := range n.Attrs {
			if firstAttr(n.Attrs, a.Name) == i { // Attr reads the first of a name
				k := attrKey{n.Name, a.Name, a.Value}
				ix.byAttr[k] = append(ix.byAttr[k], n)
			}
		}
		return true
	})
	return ix
}

func firstAttr(attrs []Attr, name string) int {
	for i, a := range attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Len is the number of elements in the tree.
func (ix *ElemIndex) Len() int { return len(ix.all) }

// All lists every element in document order.
func (ix *ElemIndex) All() []*Node { return ix.all }

// Named lists the elements called name in document order.
func (ix *ElemIndex) Named(name string) []*Node { return ix.byName[name] }

// WithAttr lists the elements called elem whose attribute attr reads
// exactly value (as Node.Attr returns it), in document order.
func (ix *ElemIndex) WithAttr(elem, attr, value string) []*Node {
	return ix.byAttr[attrKey{elem, attr, value}]
}
