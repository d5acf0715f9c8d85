package obs

import (
	"strings"
	"testing"
)

// deepTrace builds a root with `depth` chained descendants, each with
// `fan` leaf children.
func deepTrace(depth, fan int) *Span {
	root := NewSpan("root")
	levels := []SpanRef{root}
	cur := root
	for d := 0; d < depth; d++ {
		next := cur.StartChild("level")
		for f := 0; f < fan; f++ {
			leaf := next.StartChild("leaf")
			leaf.Finish()
		}
		levels = append(levels, next)
		cur = next
	}
	for _, sp := range levels {
		sp.Finish()
	}
	return root.Tree()
}

func TestRenderTreeDeep(t *testing.T) {
	root := deepTrace(20, 2)
	out := RenderTree(root)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 1 root + 20 levels + 40 leaves, nothing elided.
	if len(lines) != 61 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if strings.Contains(out, "more)") {
		t.Error("unlimited render should not elide")
	}
	if !strings.Contains(lines[0], "root") || !strings.Contains(out, "└─") {
		t.Errorf("tree structure missing:\n%s", out)
	}
}

func TestRenderTreeLimitedDepth(t *testing.T) {
	root := deepTrace(5, 1)
	out := RenderTreeLimited(root, 2, 0)
	// Depth 2: root plus its direct child, then an elision marker for the
	// remaining 9 nodes (4 levels + 5 leaves).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("depth-limited render = %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "… (9 more)") {
		t.Errorf("missing elision marker:\n%s", out)
	}
	// Depth 1 renders the root only.
	out1 := RenderTreeLimited(root, 1, 0)
	if got := len(strings.Split(strings.TrimSpace(out1), "\n")); got != 2 {
		t.Errorf("depth 1 = %d lines:\n%s", got, out1)
	}
}

func TestRenderTreeLimitedNodes(t *testing.T) {
	root := NewSpan("root")
	for i := 0; i < 10; i++ {
		c := root.StartChild("child")
		c.Finish()
	}
	root.Finish()
	tree := root.Tree()
	out := RenderTreeLimited(tree, 0, 4)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// root + 3 children + elision marker for the 7 remaining.
	if len(lines) != 5 {
		t.Fatalf("node-limited render = %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "… (7 more)") {
		t.Errorf("missing sibling elision:\n%s", out)
	}
	// A budget larger than the tree renders everything.
	if out := RenderTreeLimited(tree, 0, 100); strings.Contains(out, "more)") {
		t.Error("oversized budget should not elide")
	}
}
