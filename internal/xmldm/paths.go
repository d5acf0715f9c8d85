package xmldm

// Path navigation implements the "navigation-style access" the paper's
// conclusion (§4) lists as a required XML feature: "navigating the XML
// document structure up, down and sideways", plus recursion via the
// descendant axis and path closure.

// Axis selects the direction of one navigation step.
type Axis int

// The supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisAttribute
)

// String returns the axis name as written in path expressions.
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisSelf:
		return "self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisAttribute:
		return "attribute"
	default:
		return "axis(?)"
	}
}

// Step is one navigation step: an axis and a name test ("*" matches any
// element name).
type Step struct {
	Axis Axis
	Name string
}

// Path is a sequence of steps evaluated left to right.
type Path []Step

// Eval evaluates the path from a start node and returns the selected
// values in document order without duplicates. Attribute steps yield
// String atoms; all other steps yield *Node values.
func (p Path) Eval(start *Node) []Value {
	if start == nil {
		return nil
	}
	current := []*Node{start}
	for i, step := range p {
		if step.Axis == AxisAttribute {
			// An attribute step must be last; anything after it selects
			// nothing because attributes have no structure below them.
			if i != len(p)-1 {
				return nil
			}
			var out []Value
			for _, n := range current {
				for _, a := range n.Attrs {
					if step.Name == "*" || a.Name == step.Name {
						out = append(out, String(a.Value))
					}
				}
			}
			return out
		}
		current = evalStep(current, step)
		if len(current) == 0 {
			return nil
		}
	}
	out := make([]Value, len(current))
	for i, n := range current {
		out[i] = n
	}
	return out
}

func evalStep(in []*Node, step Step) []*Node {
	var out []*Node
	seen := make(map[*Node]bool)
	add := func(n *Node) {
		if n != nil && !seen[n] && nameMatches(step.Name, n.Name) {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range in {
		switch step.Axis {
		case AxisChild:
			for _, c := range n.ChildElements() {
				add(c)
			}
		case AxisDescendant:
			for _, c := range n.ChildElements() {
				c.Walk(func(d *Node) bool { add(d); return true })
			}
		case AxisDescendantOrSelf:
			n.Walk(func(d *Node) bool { add(d); return true })
		case AxisSelf:
			add(n)
		case AxisParent:
			add(n.Parent)
		case AxisAncestor:
			for a := n.Parent; a != nil; a = a.Parent {
				add(a)
			}
		case AxisFollowingSibling:
			for _, s := range siblingsAfter(n) {
				add(s)
			}
		case AxisPrecedingSibling:
			for _, s := range siblingsBefore(n) {
				add(s)
			}
		}
	}
	// Keep document order when ordinals are assigned; Walk order already
	// is document order per input node, but multiple input nodes can
	// interleave.
	sortByOrd(out)
	return out
}

func nameMatches(test, name string) bool { return test == "*" || test == name }

func siblingsAfter(n *Node) []*Node {
	if n.Parent == nil {
		return nil
	}
	sibs := n.Parent.ChildElements()
	for i, s := range sibs {
		if s == n {
			return sibs[i+1:]
		}
	}
	return nil
}

func siblingsBefore(n *Node) []*Node {
	if n.Parent == nil {
		return nil
	}
	sibs := n.Parent.ChildElements()
	for i, s := range sibs {
		if s == n {
			return sibs[:i]
		}
	}
	return nil
}

func sortByOrd(ns []*Node) {
	// Insertion sort: step outputs are nearly sorted already and inputs
	// are small relative to full documents.
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Ord < ns[j-1].Ord; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
