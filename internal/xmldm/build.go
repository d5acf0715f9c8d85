package xmldm

// Builder constructs element trees with parent pointers and document
// ordinals assigned, so navigation and document-order sorting work
// immediately. Each Elem call finalizes its subtree, so the outermost
// call yields a correctly numbered document; the cost is O(n·depth).
type Builder struct{}

// NewBuilder returns a Builder.
func NewBuilder() *Builder { return &Builder{} }

// Elem creates an element with the given name and children. Children may
// be *Node values (adopted: their Parent is set), atoms (kept as text
// content), or Attr values (appended to the attribute list).
func (b *Builder) Elem(name string, children ...any) *Node {
	n := &Node{Name: name}
	for _, c := range children {
		switch v := c.(type) {
		case Attr:
			n.Attrs = append(n.Attrs, v)
		case *Node:
			v.Parent = n
			n.Children = append(n.Children, v)
		case Value:
			n.Children = append(n.Children, v)
		case string:
			n.Children = append(n.Children, String(v))
		case int:
			n.Children = append(n.Children, Int(v))
		case int64:
			n.Children = append(n.Children, Int(v))
		case float64:
			n.Children = append(n.Children, Float(v))
		case bool:
			n.Children = append(n.Children, Bool(v))
		case nil:
			// skip
		default:
			panic("xmldm: Builder.Elem: unsupported child type")
		}
	}
	Finalize(n)
	return n
}

// Finalize renumbers the tree rooted at root in document order and fixes
// parent pointers; call it after assembling subtrees out of order or
// after manual tree surgery.
func Finalize(root *Node) {
	ord := 1
	var fix func(n *Node, parent *Node)
	fix = func(n *Node, parent *Node) {
		n.Parent = parent
		n.Ord = ord
		ord++
		for _, c := range n.Children {
			if e, ok := c.(*Node); ok {
				fix(e, n)
			}
		}
	}
	fix(root, nil)
}

// TupleToNode converts a tuple to an element: each field becomes a child
// element whose text is the field value. It is the canonical embedding of
// relational rows into the XML model (§3.1's "accommodating relational
// data more naturally" works both ways). A node in a field is placed by
// reference and not adopted — its Parent still names its own tree, which
// the tuple does not own — so a caller that keeps the element copies it.
func TupleToNode(name string, t *Tuple) *Node {
	n := &Node{Name: name}
	for _, f := range t.Fields() {
		child := &Node{Name: f.Name, Parent: n}
		switch v := f.Value.(type) {
		case nil, Null:
			// empty element
		case *Node:
			child.Children = append(child.Children, v)
		case *Collection:
			for _, it := range v.Items() {
				if e, ok := it.(*Node); ok {
					child.Children = append(child.Children, e)
				} else {
					child.Children = append(child.Children, String(Stringify(it)))
				}
			}
		default:
			child.Children = append(child.Children, f.Value)
		}
		n.Children = append(n.Children, child)
	}
	return n
}
