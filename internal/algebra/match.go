package algebra

import (
	"fmt"
	"strings"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Pattern matching semantics: a top-level pattern matches the root
// element itself or any descendant (so both `<bib><book>...` and a bare
// `<book>...` work against a document rooted at <bib>); a nested child
// pattern matches direct children, unless its tag test carries the
// descendant flag (`<//price>`), which matches at any depth. When one
// element pattern contains several content items, the items are
// conjunctive and the result is the Cartesian product of their matches —
// exactly the XML-QL semantics that makes repeated variables joins.

// MatchPattern matches pat anywhere in the tree rooted at root, starting
// from the given base binding, and returns one extended binding per
// match combination.
func MatchPattern(ctx *Context, root *xmldm.Node, pat *xmlql.ElemPattern, base Binding) ([]Binding, error) {
	if root == nil {
		return nil, nil
	}
	var out []Binding
	candidates := candidatesFor(root, pat.Tag, true)
	for _, e := range candidates {
		bs, err := matchElement(ctx, e, pat, base)
		if err != nil {
			return nil, err
		}
		out = append(out, bs...)
	}
	return out, nil
}

// candidatesFor returns elements that the tag test can match, looking at
// root itself and/or below it. topLevel patterns search descendant-or-
// self; nested patterns search children, or all descendants when the
// test has the descendant flag.
func candidatesFor(root *xmldm.Node, tag xmlql.TagTest, topLevel bool) []*xmldm.Node {
	test := func(n *xmldm.Node) bool { return tag.Matches(n.Name) }
	var out []*xmldm.Node
	switch {
	case topLevel || tag.Descendant:
		root.Walk(func(n *xmldm.Node) bool {
			if (n != root || topLevel) && test(n) {
				out = append(out, n)
			}
			return true
		})
	default:
		for _, c := range root.ChildElements() {
			if test(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// matchElement matches pat against exactly the element e.
func matchElement(ctx *Context, e *xmldm.Node, pat *xmlql.ElemPattern, base Binding) ([]Binding, error) {
	if ctx != nil {
		ctx.AddMatches(1)
	}
	b := base

	// Tag variable binds (or unifies with) the element name.
	if pat.Tag.Var != "" {
		nb, ok := bindUnify(b, pat.Tag.Var, xmldm.String(e.Name))
		if !ok {
			return nil, nil
		}
		b = nb
	}

	// Attribute patterns: all must be present and match.
	for _, ap := range pat.Attrs {
		v, ok := e.Attr(ap.Name)
		if !ok {
			return nil, nil
		}
		if ap.Var != "" {
			nb, ok := bindUnify(b, ap.Var, xmldm.String(v))
			if !ok {
				return nil, nil
			}
			b = nb
		} else if v != ap.Lit {
			return nil, nil
		}
	}

	if pat.ElementAs != "" {
		nb, ok := bindUnify(b, pat.ElementAs, e)
		if !ok {
			return nil, nil
		}
		b = nb
	}
	if pat.ContentAs != "" {
		nb, ok := bindUnify(b, pat.ContentAs, contentValue(e))
		if !ok {
			return nil, nil
		}
		b = nb
	}

	// Content items are conjunctive; alternatives multiply.
	bindings := []Binding{b}
	for _, item := range pat.Content {
		var next []Binding
		switch it := item.(type) {
		case *xmlql.ChildPattern:
			cands := candidatesFor(e, it.Elem.Tag, false)
			for _, cur := range bindings {
				for _, c := range cands {
					bs, err := matchElement(ctx, c, it.Elem, cur)
					if err != nil {
						return nil, err
					}
					next = append(next, bs...)
				}
			}
		case *xmlql.VarContent:
			v := contentValue(e)
			for _, cur := range bindings {
				if nb, ok := bindUnify(cur, it.Var, v); ok {
					next = append(next, nb)
				}
			}
		case *xmlql.TextContent:
			if strings.TrimSpace(e.Text()) == strings.TrimSpace(it.Text) {
				next = bindings
			}
		default:
			return nil, fmt.Errorf("algebra: unknown content pattern %T", item)
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

// contentValue returns the value an element's content denotes: Null for
// empty, the single child (atom as String, element as node) when there
// is one, or a Collection preserving order otherwise.
func contentValue(e *xmldm.Node) xmldm.Value {
	switch len(e.Children) {
	case 0:
		return xmldm.String("")
	case 1:
		return childValue(e.Children[0])
	default:
		items := make([]xmldm.Value, len(e.Children))
		for i, c := range e.Children {
			items[i] = childValue(c)
		}
		return xmldm.NewCollection(items...)
	}
}

func childValue(c xmldm.Value) xmldm.Value {
	if s, ok := c.(xmldm.String); ok {
		if t := strings.TrimSpace(string(s)); len(t) != len(s) {
			return xmldm.String(t)
		}
	}
	return c // nothing to trim: the boxed value as it is
}

// bindUnify binds var to v in b, or checks equality if already bound.
// The second result is false when unification fails.
func bindUnify(b Binding, name string, v xmldm.Value) (Binding, bool) {
	if existing, ok := b.Get(name); ok {
		if xmldm.Equal(existing, v) {
			return b, true
		}
		return nil, false
	}
	return b.With(name, v), true
}

// Match is the operator form of pattern matching: for each input binding
// it matches Pattern against a set of root values and emits the extended
// bindings. Roots come either from a fixed provider (a source scan) or
// from a variable of the input binding (`IN $var`).
type Match struct {
	Input     Operator
	Pattern   *xmlql.ElemPattern
	Roots     func(ctx *Context) ([]xmldm.Value, error) // fixed roots, or
	SourceVar string                                    // roots from binding variable
	// Workers > 1 fans the candidate elements of each input binding
	// across that many goroutines (pattern matching is pure, so the
	// per-candidate results are computed independently and concatenated
	// in candidate order — identical to the serial loop). The planner
	// sets it on plan leaves when intra-query parallelism is on.
	Workers int

	ctx     *Context
	fixed   []xmldm.Value
	pending []Binding
	wstats  []WorkerStat
}

// candidate is one element a pattern may match, queued for the parallel
// matcher.
type candidate struct {
	elem *xmldm.Node
	pat  *xmlql.ElemPattern
}

// Open implements Operator.
func (m *Match) Open(ctx *Context) error {
	if err := m.Input.Open(ctx); err != nil {
		return err
	}
	m.ctx = ctx
	m.pending = nil
	m.fixed = nil
	m.wstats = nil
	if m.Roots != nil {
		roots, err := m.Roots(ctx)
		if err != nil {
			m.Input.Close()
			return err
		}
		m.fixed = roots
	}
	return nil
}

// Next implements Operator.
func (m *Match) Next() (Binding, error) {
	if m.ctx == nil {
		return nil, ErrNotOpen
	}
	for {
		if len(m.pending) > 0 {
			b := m.pending[0]
			m.pending = m.pending[1:]
			return b, nil
		}
		in, err := m.Input.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		roots := m.fixed
		if m.SourceVar != "" {
			v, ok := in.Get(m.SourceVar)
			if !ok {
				continue
			}
			roots = rootNodes(v)
		}
		if m.Workers > 1 {
			// Collect every candidate element across the roots (the
			// same list the serial loop walks) and match them on the
			// worker pool; concatenation in candidate order keeps the
			// output byte-identical to serial evaluation.
			var cands []candidate
			for _, rv := range roots {
				root, ok := rv.(*xmldm.Node)
				if !ok {
					continue
				}
				for _, e := range candidatesFor(root, m.Pattern.Tag, true) {
					cands = append(cands, candidate{elem: e, pat: m.Pattern})
				}
			}
			if len(cands) > 1 {
				bs, err := matchParallel(m.ctx, cands, in, m.Workers, &m.wstats)
				if err != nil {
					return nil, err
				}
				m.pending = append(m.pending, bs...)
				continue
			}
		}
		for _, rv := range roots {
			root, ok := rv.(*xmldm.Node)
			if !ok {
				continue
			}
			bs, err := MatchPattern(m.ctx, root, m.Pattern, in)
			if err != nil {
				return nil, err
			}
			m.pending = append(m.pending, bs...)
		}
	}
}

// WorkerStats reports per-worker match rows and busy time when Workers
// fan-out ran; valid after the operator is drained.
func (m *Match) WorkerStats() []WorkerStat { return m.wstats }

// rootNodes extracts the matchable nodes from a bound value: a node
// itself, or the nodes inside a collection.
func rootNodes(v xmldm.Value) []xmldm.Value {
	switch x := v.(type) {
	case *xmldm.Node:
		return []xmldm.Value{x}
	case *xmldm.Collection:
		var out []xmldm.Value
		for _, it := range x.Items() {
			if n, ok := it.(*xmldm.Node); ok {
				out = append(out, n)
			}
		}
		return out
	default:
		return nil
	}
}

// BufferedTuples reports the pending-match queue length.
func (m *Match) BufferedTuples() int { return len(m.pending) }

// Close implements Operator.
func (m *Match) Close() error {
	m.ctx = nil
	m.pending = nil
	return m.Input.Close()
}
