package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// cfgOf builds the CFG of the first function declared in src.
func cfgOf(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return NewCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reach returns the blocks reachable from Entry along Succs.
func reach(g *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			dfs(e.To)
		}
	}
	dfs(g.Entry)
	return seen
}

// blockWith returns the reachable block whose printed nodes contain
// the fragment.
func blockWith(t *testing.T, g *CFG, fragment string) *Block {
	t.Helper()
	for b := range reach(g) {
		for _, n := range b.Nodes {
			if strings.Contains(nodeText(n), fragment) {
				return b
			}
		}
	}
	t.Fatalf("no reachable block contains %q", fragment)
	return nil
}

// nodeText flattens a node to its identifiers and literals, enough for
// fragment matching in tests.
func nodeText(n ast.Node) string {
	var parts []string
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Ident:
			parts = append(parts, x.Name)
		case *ast.BasicLit:
			parts = append(parts, x.Value)
		}
		return true
	})
	return strings.Join(parts, " ")
}

// reachablePreds counts incoming edges whose source is reachable from
// Entry (dead blocks still link to the exits so their nodes exist in
// the graph).
func reachablePreds(g *CFG, b *Block) int {
	r := reach(g)
	n := 0
	for _, pe := range g.Preds(b) {
		if r[pe.From] {
			n++
		}
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g := cfgOf(t, `package p
func f() {
	x := 1
	_ = x
}`)
	r := reach(g)
	if !r[g.Exit] {
		t.Error("exit unreachable")
	}
	if r[g.PanicExit] {
		t.Error("panic exit reachable in panic-free function")
	}
	if n := len(g.Preds(g.Exit)); n != 1 {
		t.Errorf("exit preds = %d, want 1", n)
	}
}

func TestCFGIfElseEdges(t *testing.T) {
	g := cfgOf(t, `package p
func f(b bool) int {
	if b {
		return 1
	}
	return 2
}`)
	if n := len(g.Preds(g.Exit)); n != 2 {
		t.Fatalf("exit preds = %d, want 2 (both returns)", n)
	}
	// The branch block must emit one plain-condition edge and one
	// negated-condition edge.
	var pos, neg int
	for b := range reach(g) {
		for _, e := range b.Succs {
			if e.Cond == nil {
				continue
			}
			if e.Negate {
				neg++
			} else {
				pos++
			}
		}
	}
	if pos != 1 || neg != 1 {
		t.Errorf("condition edges: %d plain / %d negated, want 1 / 1", pos, neg)
	}
}

func TestCFGPanicPath(t *testing.T) {
	g := cfgOf(t, `package p
func f(b bool) {
	if b {
		panic("x")
	}
	_ = b
}`)
	if n := len(g.Preds(g.PanicExit)); n != 1 {
		t.Errorf("panic-exit preds = %d, want 1", n)
	}
	if n := len(g.Preds(g.Exit)); n != 1 {
		t.Errorf("exit preds = %d, want 1 (the fallthrough)", n)
	}
	pb := blockWith(t, g, "panic")
	for _, e := range pb.Succs {
		if e.To == g.Exit {
			t.Error("panic block has an edge to the normal exit")
		}
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := cfgOf(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}`)
	anyLoop, anyBack := false, false
	for b := range reach(g) {
		if b.Loop {
			anyLoop = true
		}
		for _, e := range b.Succs {
			if e.To.Index < b.Index {
				anyBack = true
			}
		}
	}
	if !anyLoop {
		t.Error("no block flagged Loop")
	}
	if !anyBack {
		t.Error("no back edge")
	}
	if !reach(g)[g.Exit] {
		t.Error("exit unreachable (loop may not terminate in the CFG)")
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	g := cfgOf(t, `package p
func f() int {
	return 1
	_ = 2
}`)
	r := reach(g)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(nodeText(n), "2") && r[b] {
				t.Error("statement after return is reachable")
			}
		}
	}
}

func TestCFGProcessExitIsTerminal(t *testing.T) {
	g := cfgOf(t, `package p
import "os"
func f(b bool) {
	if b {
		os.Exit(1)
	}
	_ = b
}`)
	eb := blockWith(t, g, "Exit")
	if len(eb.Succs) != 0 {
		t.Errorf("os.Exit block has %d successors, want 0", len(eb.Succs))
	}
}

func TestCFGSwitchNoDefault(t *testing.T) {
	g := cfgOf(t, `package p
func f(n int) int {
	switch n {
	case 0:
		return 0
	}
	return 1
}`)
	if n := len(g.Preds(g.Exit)); n != 2 {
		t.Errorf("exit preds = %d, want 2 (case return and fallthrough return)", n)
	}
}

func TestCFGSelectBranches(t *testing.T) {
	g := cfgOf(t, `package p
func f(c chan int, done chan struct{}) int {
	select {
	case v := <-c:
		return v
	case <-done:
		return -1
	}
}`)
	if n := reachablePreds(g, g.Exit); n != 2 {
		t.Errorf("reachable exit preds = %d, want 2 (one per comm clause)", n)
	}
}

// TestForwardMayAnalysis smoke-tests the worklist solver with the span
// lattice shape: a site genned before a branch and killed on only one
// arm must still be live at the join.
func TestForwardMayAnalysis(t *testing.T) {
	g := cfgOf(t, `package p
func f(b bool) {
	x := gen()
	if b {
		kill(x)
	}
	_ = b
}`)
	lat := &testLattice{}
	res := forward[siteFact](g, lat)
	for _, pe := range g.Preds(g.Exit) {
		out := res.out[pe.From]
		if _, live := out[0]; !live {
			t.Error("site killed on one arm only, must still be live at exit (may-analysis)")
		}
	}
}

// testLattice gens site 0 at a call to gen and kills it at a call to
// kill.
type testLattice struct{}

func (l *testLattice) entry() siteFact                      { return siteFact{} }
func (l *testLattice) unreached() siteFact                  { return nil }
func (l *testLattice) join(a, b siteFact) siteFact          { return joinSites(a, b) }
func (l *testLattice) equal(a, b siteFact) bool             { return equalSites(a, b) }
func (l *testLattice) edgeFact(e Edge, f siteFact) siteFact { return f }

func (l *testLattice) transfer(b *Block, in siteFact) siteFact {
	if in == nil {
		return nil
	}
	fact := in.clone()
	for _, n := range b.Nodes {
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "gen":
					fact[0] = true
				case "kill":
					delete(fact, 0)
				}
			}
			return true
		})
	}
	return fact
}
