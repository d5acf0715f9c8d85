package analysis

import (
	"go/ast"
	"strings"
)

// SpanFinish enforces the tracing contract of internal/obs: a span
// handle (obs.SpanRef) obtained from obs.NewSpan, obs.NewRootSpan,
// obs.StartSpan, (*obs.TraceStore).NewRoot, or one of SpanRef's
// StartChild, StartChildFor and StartChildAt
// must be Finished on every path out of the function that started it,
// or escape to an owner (returned, stored, or passed along) who takes
// over that obligation. An unfinished span reports a running duration
// forever and silently corrupts every trace that contains it.
//
// The check is a may-analysis over the function's CFG: a span site is
// live from its creation until a Finish, a deferred Finish, or an
// escape kills it on that path. A site still live on an edge into the
// exit (or the panic exit — only deferred Finishes survive a panic) is
// a leak on that specific path.
var SpanFinish = &Analyzer{
	Name: "spanfinish",
	Doc: "check that every started obs.SpanRef is Finished on all paths (including panic paths) " +
		"or escapes to an owner; prefer `defer sp.Finish()` when the span covers the whole function",
	Run: runSpanFinish,
}

// span-creating callees, keyed by selector name.
var spanCreators = map[string]bool{
	"NewSpan":       true, // obs.NewSpan(name)
	"NewRootSpan":   true, // obs.NewRootSpan(name, tc)
	"StartSpan":     true, // obs.StartSpan(ctx, name) -> (ctx, SpanRef)
	"StartChild":    true, // SpanRef.StartChild(name)
	"StartChildFor": true, // SpanRef.StartChildFor(prefix, part)
	"StartChildAt":  true, // SpanRef.StartChildAt(name, i)
	"NewRoot":       true, // (*TraceStore).NewRoot(name, tc)
}

// spanSite is one tracked `sp := ...` creation inside one function unit.
type spanSite struct {
	idx   int
	ident *ast.Ident // the variable the span is bound to
	call  *ast.CallExpr
	kind  string // creator name, for messages

	finishEver bool // some path Finishes the span
	escapeEver bool // the span is handed to another owner somewhere
}

func runSpanFinish(pass *Pass) error {
	for _, f := range pass.Files {
		for _, u := range funcUnits(f) {
			spanCheckUnit(pass, u)
		}
	}
	return nil
}

// spanCreatorKind classifies a call as span-creating ("" when not).
// Type information, when present, must agree; without it the selector
// name decides (the analyzer is meant to run with full types; the
// fallback keeps partial corpora useful).
func spanCreatorKind(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !spanCreators[sel.Sel.Name] {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if path, isPkg := pass.pkgPathOf(id); isPkg {
			// obs.NewSpan / obs.StartSpan: qualifier must be the obs package.
			if strings.HasSuffix(path, "internal/obs") {
				return name
			}
			return ""
		}
	}
	switch name {
	case "StartChild", "StartChildFor", "StartChildAt":
		// Method form: when types resolve, the receiver must be the
		// writer's handle, obs.SpanRef.
		if ts := pass.typeStringOf(sel.X); ts != "" && !strings.HasSuffix(ts, "internal/obs.SpanRef") {
			return ""
		}
		return name
	case "NewRoot":
		// Method form: the receiver must be *obs.TraceStore.
		if ts := pass.typeStringOf(sel.X); ts != "" && !strings.HasSuffix(ts, "internal/obs.TraceStore") {
			return ""
		}
		return name
	}
	// Package-qualified form without type info: accept the conventional
	// qualifier name only.
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == "obs" {
		return name
	}
	return ""
}

// spanIdentFor returns the identifier a creation binds the span to
// (nil when the span immediately escapes into a non-ident target).
// discarded reports a blank-identifier binding.
func spanIdentFor(kind string, lhs []ast.Expr, rhsIndex, rhsLen int) (id *ast.Ident, discarded bool) {
	var target ast.Expr
	switch {
	case kind == "StartSpan" && rhsLen == 1 && len(lhs) == 2:
		target = lhs[1] // ctx, sp := obs.StartSpan(...)
	case rhsLen == len(lhs):
		target = lhs[rhsIndex]
	case rhsLen == 1 && len(lhs) == 1:
		target = lhs[0]
	default:
		return nil, false
	}
	ident, ok := target.(*ast.Ident)
	if !ok {
		return nil, false // sp stored into a field: escapes by construction
	}
	if ident.Name == "_" {
		return nil, true
	}
	return ident, false
}

func spanCheckUnit(pass *Pass, u funcUnit) {
	var sites []*spanSite

	// Find creations in this unit (assignments, bare expression
	// statements); nested literals are their own units.
	walkUnit(u.body, func(n ast.Node, stack []ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				kind := spanCreatorKind(pass, call)
				if kind == "" {
					continue
				}
				ident, discarded := spanIdentFor(kind, st.Lhs, i, len(st.Rhs))
				if discarded {
					pass.Reportf(call.Pos(), "result of %s is discarded: the span is never finished", kind)
					continue
				}
				if ident != nil {
					sites = append(sites, &spanSite{idx: len(sites), ident: ident, call: call, kind: kind})
				}
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if kind := spanCreatorKind(pass, call); kind != "" {
					pass.Reportf(call.Pos(), "result of %s is discarded: the span is never finished", kind)
				}
			}
		}
	})
	if len(sites) == 0 {
		return
	}

	g := NewCFG(u.body)
	lat := &spanLattice{p: pass, sites: sites}
	res := forward[siteFact](g, lat)

	for _, s := range sites {
		if s.escapeEver {
			continue // a new owner takes over the obligation
		}
		if !s.finishEver {
			pass.Reportf(s.call.Pos(),
				"span %q from %s is never finished (add `defer %s.Finish()` or finish it before every return)",
				s.ident.Name, s.kind, s.ident.Name)
			continue
		}
		for _, pe := range g.Preds(g.Exit) {
			if !res.out[pe.From][s.idx] {
				continue
			}
			if ret, ok := lastNode(pe.From).(*ast.ReturnStmt); ok {
				pass.Reportf(ret.Pos(),
					"span %q (started line %d) may not be finished on this return path; finish it before returning or use defer",
					s.ident.Name, pass.posLine(s.call.Pos()))
			} else {
				pass.Reportf(s.call.Pos(),
					"span %q (started line %d) may not be finished on every path out of the function; finish it before returning or use defer",
					s.ident.Name, pass.posLine(s.call.Pos()))
			}
		}
		for _, pe := range g.Preds(g.PanicExit) {
			if !res.out[pe.From][s.idx] {
				continue
			}
			pos := s.call.Pos()
			if n := lastNode(pe.From); n != nil {
				pos = n.Pos()
			}
			pass.Reportf(pos,
				"span %q (started line %d) may not be finished on this panic path; a deferred Finish would survive the panic",
				s.ident.Name, pass.posLine(s.call.Pos()))
		}
	}
}

// spanLattice: may-analysis of still-unfinished span sites.
type spanLattice struct {
	p     *Pass
	sites []*spanSite
}

func (l *spanLattice) entry() siteFact                        { return siteFact{} }
func (l *spanLattice) unreached() siteFact                    { return nil }
func (l *spanLattice) join(a, b siteFact) siteFact            { return joinSites(a, b) }
func (l *spanLattice) equal(a, b siteFact) bool               { return equalSites(a, b) }
func (l *spanLattice) edgeFact(e Edge, out siteFact) siteFact { return out }

func (l *spanLattice) transfer(b *Block, in siteFact) siteFact {
	if in == nil {
		return nil
	}
	fact := in.clone()
	for _, n := range b.Nodes {
		for _, s := range l.sites {
			l.applyNode(n, s, fact)
		}
	}
	return fact
}

// applyNode updates fact for one site across one block node: Finish,
// deferred Finish, escape, and rebinding all end the obligation on this
// path; the creation call (re)starts it.
func (l *spanLattice) applyNode(n ast.Node, s *spanSite, fact siteFact) {
	// Function literals inside the node: a literal that Finishes the span
	// under a defer is a (deferred) finish; any other captured use hands
	// the span to the closure's owner.
	deferredLit := deferredFuncLit(n)
	for _, lit := range funcLitsIn(n) {
		refs, finishes := litSpanUse(l.p, lit, s.ident)
		if !refs {
			continue
		}
		if lit == deferredLit && finishes {
			s.finishEver = true
		} else {
			s.escapeEver = true
		}
		delete(fact, s.idx)
	}

	genned := false
	visitNode(n, func(m ast.Node, stack []ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok && call == s.call {
			genned = true
			return
		}
		id, ok := m.(*ast.Ident)
		if !ok || id == s.ident || !l.p.sameIdent(id, s.ident) {
			return
		}
		if isDeclIdent(id, stack) {
			return
		}
		if sel, call, isRecv := methodCallOn(id, stack); isRecv {
			if sel.Sel.Name == "Finish" {
				s.finishEver = true
				delete(fact, s.idx)
				_ = call
			}
			return // other method calls on the span: neutral
		}
		if isSelectorNonCall(id, stack) {
			// Method value (sp.Finish passed along): escapes.
			s.escapeEver = true
			delete(fact, s.idx)
			return
		}
		if isAssignLHS(id, stack) {
			// Rebinding: this variable no longer holds the span.
			delete(fact, s.idx)
			return
		}
		// Argument, return value, composite literal, send, ...: escape.
		s.escapeEver = true
		delete(fact, s.idx)
	})
	if genned {
		fact[s.idx] = true
	}
}

// litSpanUse reports whether the literal references the span variable
// and whether it calls Finish on it.
func litSpanUse(p *Pass, lit *ast.FuncLit, def *ast.Ident) (refs, finishes bool) {
	walkStack(lit.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || !p.sameIdent(id, def) {
			return
		}
		refs = true
		if sel, _, isRecv := methodCallOn(id, stack); isRecv && sel.Sel.Name == "Finish" {
			finishes = true
		}
	})
	return refs, finishes
}
