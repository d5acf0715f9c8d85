// Forward dataflow over the CFG. One generic worklist solver serves
// both flavors the analyzers need:
//
//   - may-analyses (union join): "this span MAY still be unfinished
//     here" — spanfinish, opclose;
//   - must-analyses (intersection join): "this mutex IS held on every
//     path to here" — lockorder.
//
// A lattice supplies the transfer function per block and, crucially, an
// edge transfer: the solver hands each outgoing Edge (with its branch
// Cond) back to the lattice, which can refine facts — the true edge of
// `if err != nil` kills the "Open succeeded" site. That per-edge
// refinement is what the position-based heuristics could never express.
package analysis

import (
	"go/ast"
	"go/types"
)

// lattice describes one forward dataflow problem with fact type T.
type lattice[T any] interface {
	// entry is the fact at function entry.
	entry() T
	// unreached is the identity of join: the fact for a block no
	// processed predecessor reaches.
	unreached() T
	join(a, b T) T
	equal(a, b T) bool
	// transfer applies the whole block to the incoming fact.
	transfer(b *Block, in T) T
	// edgeFact refines the predecessor's out-fact along one edge; the
	// default refinement is the identity.
	edgeFact(e Edge, out T) T
}

type flowResult[T any] struct {
	in, out map[*Block]T
}

// forward solves the dataflow problem to a fixpoint with a worklist.
func forward[T any](g *CFG, l lattice[T]) flowResult[T] {
	res := flowResult[T]{in: make(map[*Block]T), out: make(map[*Block]T)}
	for _, b := range g.Blocks {
		res.out[b] = l.transfer(b, l.unreached())
		res.in[b] = l.unreached()
	}
	// Blocks are appended in roughly program order, so index order makes
	// a reasonable first pass; the worklist handles back edges.
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make(map[*Block]bool, len(g.Blocks))
	for _, b := range work {
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		in := l.unreached()
		if b == g.Entry {
			in = l.entry()
		}
		for _, pe := range g.Preds(b) {
			in = l.join(in, l.edgeFact(pe.Edge, res.out[pe.From]))
		}
		res.in[b] = in
		out := l.transfer(b, in)
		if l.equal(out, res.out[b]) {
			continue
		}
		res.out[b] = out
		for _, e := range b.Succs {
			if !queued[e.To] {
				queued[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	return res
}

// ---- shared fact plumbing ----------------------------------------------

// siteFact maps a live site index to whether its error-variable
// association is still valid (usable for edge refinement). A nil map is
// the solver's unreached element; may-analyses join by union.
type siteFact map[int]bool

func (f siteFact) clone() siteFact {
	if f == nil {
		return nil
	}
	out := make(siteFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func joinSites(a, b siteFact) siteFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k, v := range b {
		if have, ok := out[k]; ok {
			// Associations must agree on every path to stay usable.
			out[k] = have && v
		} else {
			out[k] = v
		}
	}
	return out
}

func equalSites(a, b siteFact) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ---- edge condition refinement -----------------------------------------

// condAtom strips parens and negations, returning the core expression
// and whether the edge truth value was flipped an odd number of times.
func condAtom(cond ast.Expr, negate bool) (ast.Expr, bool) {
	for {
		switch e := cond.(type) {
		case *ast.ParenExpr:
			cond = e.X
		case *ast.UnaryExpr:
			if e.Op.String() == "!" {
				cond = e.X
				negate = !negate
				continue
			}
			return cond, negate
		default:
			return cond, negate
		}
	}
}

// edgeImpliesNonNil reports whether taking e implies the value of obj is
// non-nil (i.e. the condition is `obj != nil` on the true edge or
// `obj == nil` on the false edge).
func edgeImpliesNonNil(p *Pass, e Edge, obj types.Object) bool {
	if e.Cond == nil {
		return false
	}
	atom, negate := condAtom(e.Cond, e.Negate)
	bin, ok := atom.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	op := bin.Op.String()
	if op != "==" && op != "!=" {
		return false
	}
	var id *ast.Ident
	if isNilIdent(bin.Y) {
		id, _ = bin.X.(*ast.Ident)
	} else if isNilIdent(bin.X) {
		id, _ = bin.Y.(*ast.Ident)
	}
	if id == nil {
		return false
	}
	if o := p.objectOf(id); o == nil || o != obj {
		return false
	}
	// Edge taken ⇒ condition is (negate ? false : true).
	return !negate == (op == "!=")
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
