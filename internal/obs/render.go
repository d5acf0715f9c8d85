package obs

import (
	"fmt"
	"strings"
)

// TreeNode is anything renderable as an ASCII tree: span trees, EXPLAIN
// operator trees. The renderer is shared so every tree-shaped diagnostic
// the system prints (traces, plans) reads the same way.
type TreeNode interface {
	// TreeLabel is the one-line description of this node.
	TreeLabel() string
	// TreeChildren returns the ordered children.
	TreeChildren() []TreeNode
}

// RenderTree renders the node and its descendants as an indented tree
// using box-drawing connectors:
//
//	root
//	├─ child one
//	│  └─ grandchild
//	└─ child two
func RenderTree(root TreeNode) string {
	return RenderTreeLimited(root, 0, 0)
}

// RenderTreeLimited renders like RenderTree but truncates: maxDepth
// bounds how deep children are expanded (0 = unlimited; 1 = root only)
// and maxNodes bounds total rendered nodes (0 = unlimited). Elided
// subtrees and siblings leave a `… (n more)` marker so a truncated
// rendering is visibly truncated — deep fan-out traces stay readable on
// the debug surface instead of scrolling for pages.
func RenderTreeLimited(root TreeNode, maxDepth, maxNodes int) string {
	var b strings.Builder
	b.WriteString(root.TreeLabel())
	b.WriteByte('\n')
	budget := maxNodes - 1 // root already rendered
	if maxNodes == 0 {
		budget = -1 // unlimited
	}
	renderChildren(&b, root, "", 1, maxDepth, &budget)
	return b.String()
}

// countNodes sizes a subtree for elision markers.
func countNodes(n TreeNode) int {
	total := 1
	for _, c := range n.TreeChildren() {
		total += countNodes(c)
	}
	return total
}

func renderChildren(b *strings.Builder, n TreeNode, prefix string, depth, maxDepth int, budget *int) {
	children := n.TreeChildren()
	if len(children) == 0 {
		return
	}
	if maxDepth > 0 && depth >= maxDepth {
		hidden := 0
		for _, c := range children {
			hidden += countNodes(c)
		}
		fmt.Fprintf(b, "%s└─ … (%d more)\n", prefix, hidden)
		return
	}
	for i, c := range children {
		if *budget == 0 {
			hidden := 0
			for _, rest := range children[i:] {
				hidden += countNodes(rest)
			}
			fmt.Fprintf(b, "%s└─ … (%d more)\n", prefix, hidden)
			return
		}
		connector, extend := "├─ ", "│  "
		if i == len(children)-1 {
			connector, extend = "└─ ", "   "
		}
		b.WriteString(prefix)
		b.WriteString(connector)
		b.WriteString(c.TreeLabel())
		b.WriteByte('\n')
		if *budget > 0 {
			*budget--
		}
		renderChildren(b, c, prefix+extend, depth+1, maxDepth, budget)
	}
}

// TreeLabel implements TreeNode: the span name, duration, and attributes.
func (s *Span) TreeLabel() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(s.Name())
	fmt.Fprintf(&b, " %.3fms", float64(s.Duration())/1e6)
	for _, a := range s.attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value)
	}
	return b.String()
}

// TreeChildren implements TreeNode.
func (s *Span) TreeChildren() []TreeNode {
	if s == nil {
		return nil
	}
	out := make([]TreeNode, len(s.children))
	for i, c := range s.children {
		out[i] = c
	}
	return out
}

// RenderText renders the span tree as indented text — the plain-text
// sibling of the JSON/XML trace formats.
func (s *Span) RenderText() string {
	if s == nil {
		return ""
	}
	return RenderTree(s)
}
