package analysis

import (
	"go/ast"
	"go/types"
)

// OpClose enforces the operator lifecycle contract of internal/algebra:
// Close is only guaranteed to be called by a consumer after a
// successful Open (drain() defers Close only once Open returns nil).
// So a function that opens several operators must, on the error path of
// each later Open, close the ones that already opened — and a locally
// opened operator must be closed (or handed off) before the function
// returns. Violations leak whatever resources a source-backed leaf
// holds (pull functions, cursors, network readers).
//
// The check is a may-analysis over the function's CFG. An open site is
// live from the Open call until a Close (direct or deferred), an
// escape, or — via edge refinement — the `err != nil` branch proving
// the Open itself failed. Sites still live on an edge into the exit are
// leaks on that path.
var OpClose = &Analyzer{
	Name: "opclose",
	Doc: "check that every operator whose Open succeeded has Close reachable on all paths, " +
		"including the error paths of subsequent Opens and panic paths",
	Run: runOpClose,
}

// openSite is one tracked `X.Open(...)` whose result is (possibly)
// checked against an error variable.
type openSite struct {
	idx     int
	recv    ast.Expr
	recvStr string
	call    *ast.CallExpr
	errObj  types.Object   // the error variable guarding this open (nil if none)
	errBody *ast.BlockStmt // error-path block of the guarded form (for attribution)
	isIdent bool           // receiver is a bare local identifier
	inLoop  bool           // open site sits inside a for/range statement

	escapeEver bool
}

func runOpClose(pass *Pass) error {
	for _, f := range pass.Files {
		for _, u := range funcUnits(f) {
			opCheckUnit(pass, u)
		}
	}
	return nil
}

// isOperatorOpen reports whether call is `recv.Open(...)` on a value
// that also has a Close method (ruling out os.Open-style package
// functions and unrelated Open methods on close-less types).
func isOperatorOpen(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	recv, name, ok := pass.methodCall(call)
	if !ok || name != "Open" {
		return nil, false
	}
	if pass.TypesInfo != nil {
		if tv, ok := pass.TypesInfo.Types[recv]; ok && tv.Type != nil {
			obj, _, _ := types.LookupFieldOrMethod(tv.Type, true, pass.Pkg, "Close")
			if _, isFunc := obj.(*types.Func); !isFunc {
				return nil, false
			}
		}
	}
	return recv, true
}

func opCheckUnit(pass *Pass, u funcUnit) {
	var sites []*openSite
	anyLoopClose := false

	// Collect open sites and spot the close-the-opened-prefix idiom (a
	// Close inside a loop body).
	walkUnit(u.body, func(n ast.Node, stack []ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			recv, ok := isOperatorOpen(pass, call)
			if !ok {
				return
			}
			s := &openSite{
				idx: len(sites), recv: recv, recvStr: exprString(recv),
				call: call, inLoop: inLoop(stack),
			}
			_, s.isIdent = recv.(*ast.Ident)
			if len(st.Lhs) == 1 {
				if errID, ok := st.Lhs[0].(*ast.Ident); ok && errID.Name != "_" {
					s.errObj = pass.objectOf(errID)
				}
			}
			// Guarded form `if err := X.Open(ctx); err != nil { ... }`:
			// remember the error block for rule-1 attribution.
			if len(stack) > 0 {
				if ifst, ok := stack[len(stack)-1].(*ast.IfStmt); ok && ifst.Init == ast.Stmt(st) {
					s.errBody = ifst.Body
				}
			}
			sites = append(sites, s)
		case *ast.CallExpr:
			if recv, name, ok := pass.methodCall(st); ok && name == "Close" && recv != nil && inLoop(stack) {
				anyLoopClose = true
			}
		}
	})
	if len(sites) == 0 {
		return
	}

	g := NewCFG(u.body)
	lat := &opLattice{p: pass, sites: sites}
	res := forward(g, lat)

	reportedLocal := make(map[int]bool)   // rule-2 dedup, by site
	reportedPair := make(map[[2]int]bool) // rule-1 dedup, by (guard, leaked)

	for _, pe := range g.Preds(g.Exit) {
		out := res.out[pe.From]
		ret, _ := lastNode(pe.From).(*ast.ReturnStmt)
		for _, s := range sites {
			if !out[s.idx] || s.escapeEver {
				continue
			}
			// Rule 1: a return on the error path of a later guarded Open
			// leaves this (already successfully opened) operator behind.
			attributed := false
			if ret != nil {
				for _, guard := range sites {
					if guard == s || guard.errBody == nil || guard.recvStr == s.recvStr {
						continue
					}
					if ret.Pos() < guard.errBody.Pos() || ret.End() > guard.errBody.End() {
						continue
					}
					attributed = true
					key := [2]int{guard.idx, s.idx}
					if reportedPair[key] {
						continue
					}
					reportedPair[key] = true
					pass.Reportf(guard.call.Pos(),
						"error path of %s.Open leaves %s open (opened at line %d); close it before returning",
						guard.recvStr, s.recvStr, pass.posLine(s.call.Pos()))
				}
			}
			if attributed {
				continue
			}
			// Rule 2: a locally opened operator (bare identifier receiver)
			// must be closed or handed off before the function returns.
			// Field receivers elsewhere are the owner's responsibility.
			if !s.isIdent {
				continue
			}
			if s.inLoop && anyLoopClose {
				continue // the loop closes the opened prefix
			}
			if !reportedLocal[s.idx] {
				reportedLocal[s.idx] = true
				id := s.recv.(*ast.Ident)
				pass.Reportf(s.call.Pos(),
					"operator %q is opened but never closed in %s (add `defer %s.Close()` after a successful Open)",
					id.Name, u.name, id.Name)
			}
		}
	}

	// Panic paths: a locally opened operator with no deferred Close leaks
	// when the function panics.
	for _, pe := range g.Preds(g.PanicExit) {
		out := res.out[pe.From]
		for _, s := range sites {
			if !out[s.idx] || s.escapeEver || !s.isIdent || reportedLocal[s.idx] {
				continue
			}
			if s.inLoop && anyLoopClose {
				continue
			}
			reportedLocal[s.idx] = true
			pos := s.call.Pos()
			if n := lastNode(pe.From); n != nil {
				pos = n.Pos()
			}
			id := s.recv.(*ast.Ident)
			pass.Reportf(pos,
				"operator %q (opened line %d) is not closed on this panic path; a deferred Close would survive the panic",
				id.Name, pass.posLine(s.call.Pos()))
		}
	}
}

// opLattice: may-analysis of operators whose Open may have succeeded
// without a matching Close yet. The fact value carries whether the
// site's error-variable association is still valid for edge refinement.
type opLattice struct {
	p     *Pass
	sites []*openSite
}

func (l *opLattice) entry() siteFact     { return siteFact{} }
func (l *opLattice) unreached() siteFact { return nil }

func (l *opLattice) join(a, b siteFact) siteFact { return joinSites(a, b) }
func (l *opLattice) equal(a, b siteFact) bool    { return equalSites(a, b) }

// edgeFact kills a site along edges proving its own Open failed
// (`err != nil` true branch): nothing to close on that path.
func (l *opLattice) edgeFact(e Edge, out siteFact) siteFact {
	if out == nil || e.Cond == nil {
		return out
	}
	var refined siteFact
	for _, s := range l.sites {
		if s.errObj == nil {
			continue
		}
		if valid, live := out[s.idx]; live && valid && edgeImpliesNonNil(l.p, e, s.errObj) {
			if refined == nil {
				refined = out.clone()
			}
			delete(refined, s.idx)
		}
	}
	if refined != nil {
		return refined
	}
	return out
}

func (l *opLattice) transfer(b *Block, in siteFact) siteFact {
	if in == nil {
		return nil
	}
	fact := in.clone()
	for _, n := range b.Nodes {
		for _, s := range l.sites {
			l.applyNode(n, s, fact, b.Loop)
		}
	}
	return fact
}

func (l *opLattice) applyNode(n ast.Node, s *openSite, fact siteFact, inLoopBlock bool) {
	// Function literals in the node: a deferred literal that closes the
	// receiver counts as a Close; any other capture of an ident receiver
	// hands the operator to the closure.
	deferredLit := deferredFuncLit(n)
	for _, lit := range funcLitsIn(n) {
		refs, closes := litCloseUse(l.p, lit, s.recvStr)
		if closes && (lit == deferredLit || !s.isIdent) {
			delete(fact, s.idx)
			continue
		}
		if refs && s.isIdent {
			if lit == deferredLit && closes {
				delete(fact, s.idx)
			} else {
				s.escapeEver = true
				delete(fact, s.idx)
			}
		}
	}

	genned := false
	assignedErr := false
	visitNode(n, func(m ast.Node, stack []ast.Node) {
		switch mm := m.(type) {
		case *ast.CallExpr:
			if mm == s.call {
				genned = true
				return
			}
			recv, name, ok := l.p.methodCall(mm)
			if !ok || name != "Close" {
				return
			}
			rs := exprString(recv)
			if rs != "" && rs == s.recvStr {
				delete(fact, s.idx)
			} else if inLoopBlock {
				// Close on another receiver inside a loop: the
				// close-the-opened-prefix idiom covers every earlier open.
				delete(fact, s.idx)
			}
		case *ast.Ident:
			if s.errObj != nil && l.p.objectOf(mm) == s.errObj && isAssignLHS(mm, stack) {
				assignedErr = true
			}
			if !s.isIdent {
				return
			}
			def, _ := s.recv.(*ast.Ident)
			if mm == def || !l.p.sameIdent(mm, def) {
				return
			}
			if isDeclIdent(mm, stack) {
				return
			}
			if _, _, isRecv := methodCallOn(mm, stack); isRecv {
				return // method calls (Next, Close handled above) are neutral
			}
			if isAssignLHS(mm, stack) {
				// Rebinding: the variable no longer holds this operator.
				delete(fact, s.idx)
				return
			}
			// Argument, return value, store, method value: a new owner.
			s.escapeEver = true
			delete(fact, s.idx)
		}
	})
	if genned {
		fact[s.idx] = true
	} else if assignedErr {
		// The error variable was reassigned by something else; its value
		// no longer witnesses this Open.
		if valid, live := fact[s.idx]; live && valid {
			fact[s.idx] = false
		}
	}
}

// litCloseUse reports whether the literal references the receiver and
// whether it calls Close on it (matched by expression string, so field
// receivers like p.Left work too).
func litCloseUse(p *Pass, lit *ast.FuncLit, recvStr string) (refs, closes bool) {
	if recvStr == "" {
		return false, false
	}
	walkStack(lit.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if recv, name, ok := p.methodCall(call); ok && name == "Close" && exprString(recv) == recvStr {
			closes = true
		}
	})
	// refs: does the literal mention the receiver identifier at all?
	base := recvStr
	for i := 0; i < len(base); i++ {
		if base[i] == '.' {
			base = base[:i]
			break
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == base {
			refs = true
		}
		return true
	})
	return refs, closes
}
