package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// walkStack visits every node under root, passing the ancestor stack
// (outermost first, not including n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// exprString renders an identifier or a selector chain ("j.Left.Close"
// style receivers); other expression forms yield "".
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return ""
}

// enclosingFunc returns the innermost function literal or declaration
// on the stack (the node itself counts when it is one).
func enclosingFunc(n ast.Node, stack []ast.Node) ast.Node {
	switch n.(type) {
	case *ast.FuncLit, *ast.FuncDecl:
		return n
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// inLoop reports whether the stack passes through a for or range
// statement.
func inLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// inDefer reports whether the stack passes through a defer statement.
func inDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// objectOf resolves an identifier nil-safely.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// pkgPathOf returns the import path when id names an imported package.
func (p *Pass) pkgPathOf(id *ast.Ident) (string, bool) {
	if pn, ok := p.objectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}

// typeStringOf returns the type of e as a string ("" when unknown).
func (p *Pass) typeStringOf(e ast.Expr) string {
	if p.TypesInfo == nil {
		return ""
	}
	if tv, ok := p.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return ""
}

// methodCall decomposes a call of the form recv.Name(...), returning
// the receiver expression and method name; ok is false for any other
// call shape (including package-qualified function calls when type
// information identifies the qualifier as a package name).
func (p *Pass) methodCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	if id, isID := sel.X.(*ast.Ident); isID {
		if _, isPkg := p.pkgPathOf(id); isPkg {
			return nil, "", false
		}
	}
	return sel.X, sel.Sel.Name, true
}

// sameIdent reports whether use refers to the same variable as def,
// preferring type information and falling back to name equality.
func (p *Pass) sameIdent(use *ast.Ident, def *ast.Ident) bool {
	uo, do := p.objectOf(use), p.objectOf(def)
	if uo != nil && do != nil {
		return uo == do
	}
	return use.Name == def.Name
}

// funcName names a declaration for diagnostics ("(*Engine).run" style
// for methods).
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := baseTypeIdent(t); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// baseTypeIdent unwraps a receiver type expression to its base named
// type identifier (handles pointers and generic instantiations).
func baseTypeIdent(t ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// returnsIn collects every return statement within fn that exits the
// given enclosing function node.
func returnsIn(fd *ast.FuncDecl, owner ast.Node) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	walkStack(fd, func(n ast.Node, stack []ast.Node) {
		r, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if enclosingFunc(n, stack) == owner {
			out = append(out, r)
		}
	})
	return out
}

// isDeclIdent reports whether the identifier occurrence is a
// declaration, not a use: a parameter/receiver/struct field name, a
// range variable, or a var-spec name. Declarations are neutral for
// escape analysis — they introduce the variable, they don't hand it to
// anyone.
func isDeclIdent(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.Field:
		return true
	case *ast.ValueSpec:
		for _, n := range parent.Names {
			if n == id {
				return true
			}
		}
	case *ast.RangeStmt:
		return parent.Key == ast.Expr(id) || parent.Value == ast.Expr(id)
	}
	return false
}

// funcUnit is one function body analyzed as its own CFG: a declaration
// or a function literal (literals run under their own control flow, so
// each gets its own graph; name is the enclosing declaration's, for
// diagnostics).
type funcUnit struct {
	body *ast.BlockStmt
	name string
	decl *ast.FuncDecl
}

// funcUnits enumerates every function body in the file.
func funcUnits(f *ast.File) []funcUnit {
	var out []funcUnit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcUnit{body: fd.Body, name: funcName(fd), decl: fd})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcUnit{body: lit.Body, name: funcName(fd), decl: fd})
			}
			return true
		})
	}
	return out
}

// walkUnit visits every node of one function unit with its ancestor
// stack, pruning nested function literals (they are separate units).
func walkUnit(body *ast.BlockStmt, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// lastNode returns the final node of a block (nil when empty).
func lastNode(b *Block) ast.Node {
	if len(b.Nodes) == 0 {
		return nil
	}
	return b.Nodes[len(b.Nodes)-1]
}

// deferredFuncLit returns the literal directly invoked by a defer
// statement (`defer func() { ... }()`), or nil.
func deferredFuncLit(n ast.Node) *ast.FuncLit {
	d, ok := n.(*ast.DeferStmt)
	if !ok {
		return nil
	}
	lit, _ := d.Call.Fun.(*ast.FuncLit)
	return lit
}

// methodCallOn reports whether the identifier occurrence is the
// receiver of a method call (`id.M(...)`), returning the selector and
// call when so.
func methodCallOn(id *ast.Ident, stack []ast.Node) (*ast.SelectorExpr, *ast.CallExpr, bool) {
	if len(stack) < 2 {
		return nil, nil, false
	}
	sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return nil, nil, false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok || call.Fun != ast.Expr(sel) {
		return nil, nil, false
	}
	return sel, call, true
}

// isSelectorNonCall reports whether the identifier is the base of a
// selector that is not immediately called (a method value or field
// access handed along).
func isSelectorNonCall(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) < 1 {
		return false
	}
	sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return false
	}
	if len(stack) >= 2 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
			return false
		}
	}
	return true
}

// isAssignLHS reports whether the identifier is an assignment target.
func isAssignLHS(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) < 1 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		if l == ast.Expr(id) {
			return true
		}
	}
	return false
}

// posLine returns the 1-based line of pos.
func (p *Pass) posLine(pos token.Pos) int {
	return p.Fset.Position(pos).Line
}
