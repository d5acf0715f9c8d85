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
// Matches come out in document order of the top-level candidates, then
// of the first item's choices, and so on: the lexicographic order of the
// choices made, item by item.

// MatchPattern matches pat anywhere in the tree rooted at root, starting
// from the given base binding, and returns one extended binding per
// match combination.
func MatchPattern(ctx *Context, root *xmldm.Node, pat *xmlql.ElemPattern, base Binding) ([]Binding, error) {
	if root == nil {
		return nil, nil
	}
	cands, _ := candidates([]xmldm.Value{root}, nil, pat)
	var m matcher
	return m.match(ctx, cands, pat, base, nil)
}

// candidates returns the elements of roots, each root included, that a
// top-level pattern may match, in document order. A root that index
// covers — index(root) is non-nil, which a source answers only for the
// document it serves now — gives the index's list for the pattern; every
// other root, and a pattern no list serves, is walked. A lone indexed
// root's list is returned as it is, with no walk and no copy, and is
// shared: callers must not modify the result. walked reports that some
// root was walked although index was set.
func candidates(roots []xmldm.Value, index func(*xmldm.Node) *xmldm.ElemIndex, pat *xmlql.ElemPattern) (cands []*xmldm.Node, walked bool) {
	var out []*xmldm.Node
	for _, rv := range roots {
		root, ok := rv.(*xmldm.Node)
		if !ok {
			continue
		}
		if index != nil {
			if list, ok := indexList(index(root), pat); ok {
				if len(roots) == 1 {
					return list, false
				}
				out = append(out, list...)
				continue
			}
			walked = true
		}
		root.Walk(func(n *xmldm.Node) bool {
			if pat.Tag.Matches(n.Name) {
				out = append(out, n)
			}
			return true
		})
	}
	return out, walked
}

// indexList is ix's candidate list for a top-level pattern: every element
// for <*> and <$t>, else the elements of the tag's name — those whose
// attribute reads the literal, when the pattern tests one against a
// literal. Alternatives <(a|b)> have no list; neither has a nil index.
// Each candidate is still fully matched, so a list need only hold every
// element the pattern can match, in document order.
func indexList(ix *xmldm.ElemIndex, pat *xmlql.ElemPattern) ([]*xmldm.Node, bool) {
	if ix == nil {
		return nil, false
	}
	tag := pat.Tag
	switch {
	case tag.Wild || tag.Var != "":
		return ix.All(), true
	case len(tag.Alts) > 0:
		return nil, false
	}
	if a, ok := literalAttr(pat); ok {
		return ix.WithAttr(tag.Name, a.Name, a.Lit), true
	}
	return ix.Named(tag.Name), true
}

// indexKey names indexList's list for EXPLAIN, or "" when the pattern
// has none.
func indexKey(pat *xmlql.ElemPattern) string {
	tag := pat.Tag
	switch {
	case tag.Wild || tag.Var != "":
		return "*"
	case len(tag.Alts) > 0:
		return ""
	}
	if a, ok := literalAttr(pat); ok {
		return fmt.Sprintf("%s[@%s='%s']", tag.Name, a.Name, a.Lit)
	}
	return tag.Name
}

// literalAttr is the first attribute the pattern tests against a literal.
func literalAttr(pat *xmlql.ElemPattern) (xmlql.AttrPattern, bool) {
	for _, a := range pat.Attrs {
		if a.Var == "" {
			return a, true
		}
	}
	return xmlql.AttrPattern{}, false
}

// matcher is the backtracking pattern matcher. It binds into one frame —
// the fields a match adds to its base binding, in binding order — undoes
// a failed choice by truncating the frame, and allocates only when a
// match is complete: one tuple, its fields carved from a slab. The
// content items still to match of each enclosing element wait on a
// continuation stack, so a child pattern's every match goes straight on
// to its parent's next item. A matcher is reused across candidates and
// calls but not shared between goroutines.
type matcher struct {
	base    Binding
	frame   []xmldm.Field
	conts   []cont
	slab    []xmldm.Field
	out     []Binding
	matches int64
}

// cont is an enclosing element's remaining content: pat's items from
// next on, matched against e.
type cont struct {
	e    *xmldm.Node
	pat  *xmlql.ElemPattern
	next int
}

// slabFields caps the size a fresh slab doubles to; the first holds four
// bindings. A slab lives as long as any binding carved from it.
const slabFields = 1024

// match appends to out one binding per match of pat against each
// candidate in turn and returns the extended slice, or the first error.
// It counts the element match attempts and adds them to ctx once.
func (m *matcher) match(ctx *Context, cands []*xmldm.Node, pat *xmlql.ElemPattern, base Binding, out []Binding) ([]Binding, error) {
	m.begin(base, out)
	var err error
	for _, e := range cands {
		if err = m.elem(e, pat); err != nil {
			break
		}
	}
	m.end(ctx)
	return m.out, err
}

// begin starts a run of matches under base that appends to out.
func (m *matcher) begin(base Binding, out []Binding) {
	m.base, m.out = base, out
	m.frame, m.conts = m.frame[:0], m.conts[:0]
	m.matches = 0
}

// end adds the run's match attempts to ctx; m.out keeps the bindings.
func (m *matcher) end(ctx *Context) {
	if ctx != nil && m.matches > 0 {
		ctx.AddMatches(m.matches)
	}
	m.base = nil
}

// elem matches pat against exactly the element e.
func (m *matcher) elem(e *xmldm.Node, pat *xmlql.ElemPattern) error {
	m.matches++
	mark := len(m.frame)
	var err error
	if m.head(e, pat) {
		err = m.content(e, pat, 0)
	}
	m.frame = m.frame[:mark]
	return err
}

// head binds what pat says of e itself: the tag variable, the attributes
// (all present, variables bound, literals equal), ELEMENT_AS, CONTENT_AS.
func (m *matcher) head(e *xmldm.Node, pat *xmlql.ElemPattern) bool {
	if pat.Tag.Var != "" && !m.unify(pat.Tag.Var, xmldm.String(e.Name)) {
		return false
	}
	for _, ap := range pat.Attrs {
		v, ok := e.Attr(ap.Name)
		switch {
		case !ok:
			return false
		case ap.Var != "":
			if !m.unify(ap.Var, xmldm.String(v)) {
				return false
			}
		case v != ap.Lit:
			return false
		}
	}
	if pat.ElementAs != "" && !m.unify(pat.ElementAs, e) {
		return false
	}
	return pat.ContentAs == "" || m.unify(pat.ContentAs, contentValue(e))
}

// content matches pat's content items from i on against e. Past the last
// item e is matched, and the enclosing element's remaining items follow;
// past the outermost element the binding is complete.
func (m *matcher) content(e *xmldm.Node, pat *xmlql.ElemPattern, i int) error {
	if i == len(pat.Content) {
		n := len(m.conts)
		if n == 0 {
			m.emit()
			return nil
		}
		k := m.conts[n-1]
		m.conts = m.conts[:n-1]
		err := m.content(k.e, k.pat, k.next)
		m.conts = append(m.conts[:n-1], k)
		return err
	}
	switch it := pat.Content[i].(type) {
	case *xmlql.ChildPattern:
		m.conts = append(m.conts, cont{e: e, pat: pat, next: i + 1})
		err := m.children(e, it.Elem)
		m.conts = m.conts[:len(m.conts)-1]
		return err
	case *xmlql.VarContent:
		mark := len(m.frame)
		var err error
		if m.unify(it.Var, contentValue(e)) {
			err = m.content(e, pat, i+1)
		}
		m.frame = m.frame[:mark]
		return err
	case *xmlql.TextContent:
		if strings.TrimSpace(e.Text()) == strings.TrimSpace(it.Text) {
			return m.content(e, pat, i+1)
		}
		return nil
	default:
		return fmt.Errorf("algebra: unknown content pattern %T", it)
	}
}

// children matches a child pattern against e's child elements in
// document order — against every descendant, in document order, when its
// tag test carries the descendant flag.
func (m *matcher) children(e *xmldm.Node, pat *xmlql.ElemPattern) error {
	for _, c := range e.Children {
		n, ok := c.(*xmldm.Node)
		if !ok {
			continue
		}
		if pat.Tag.Matches(n.Name) {
			if err := m.elem(n, pat); err != nil {
				return err
			}
		}
		if pat.Tag.Descendant {
			if err := m.children(n, pat); err != nil {
				return err
			}
		}
	}
	return nil
}

// unify binds name to v, or checks that its value equals v when the base
// or the frame already binds it.
func (m *matcher) unify(name string, v xmldm.Value) bool {
	for _, f := range m.frame {
		if f.Name == name {
			return xmldm.Equal(f.Value, v)
		}
	}
	if existing, ok := m.base.Get(name); ok {
		return xmldm.Equal(existing, v)
	}
	m.frame = append(m.frame, xmldm.Field{Name: name, Value: v})
	return true
}

// emit appends the complete binding: the base's fields, then the
// frame's — or the base itself when the match bound nothing new.
func (m *matcher) emit() {
	if len(m.frame) == 0 {
		m.out = append(m.out, m.base)
		return
	}
	base := m.base.Fields()
	n := len(base) + len(m.frame)
	if cap(m.slab)-len(m.slab) < n {
		m.slab = make([]xmldm.Field, 0, max(4*n, min(2*cap(m.slab), slabFields)))
	}
	lo := len(m.slab)
	m.slab = append(append(m.slab, base...), m.frame...)
	m.out = append(m.out, xmldm.NewTuple(m.slab[lo:len(m.slab):len(m.slab)]...))
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

// Match is the operator form of pattern matching: for each input binding
// it matches Pattern against a set of root values and emits the extended
// bindings. Roots come either from a fixed provider (a source scan) or
// from a variable of the input binding (`IN $var`).
type Match struct {
	Input     Operator
	Pattern   *xmlql.ElemPattern
	Roots     func(ctx *Context) ([]xmldm.Value, error) // fixed roots, or
	SourceVar string                                    // roots from binding variable
	// Index, when set, is the element index of the source a source scan
	// reads: it answers for the document the source serves now and nil
	// for any other, which is then walked (see candidates). The planner
	// sets it from a catalog.Indexed source.
	Index func(doc *xmldm.Node) *xmldm.ElemIndex
	// Label names a source scan's request for EXPLAIN ("fetch tickets",
	// "materialize schema goldcust"); the planner sets it.
	Label string

	ctx     *Context
	fixed   []xmldm.Value
	pending []Binding
	pos     int
	mt      matcher
	walked  bool // a root was walked although Index was set
}

// Open implements Operator.
func (m *Match) Open(ctx *Context) error {
	if err := m.Input.Open(ctx); err != nil {
		return err
	}
	m.ctx = ctx
	m.pending, m.pos = nil, 0
	m.fixed = nil
	m.walked = false
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
		if m.pos < len(m.pending) {
			b := m.pending[m.pos]
			m.pos++
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
		cands, walked := candidates(roots, m.Index, m.Pattern)
		m.walked = m.walked || walked
		// Every binding handed out is the consumer's now: the queue's
		// backing array is reused.
		m.pending, m.pos = m.pending[:0], 0
		m.pending, err = m.mt.match(m.ctx, cands, m.Pattern, in, m.pending)
		if err != nil {
			return nil, err
		}
	}
}

// access names where the leaf's candidates come from, for EXPLAIN: the
// index list its pattern reads, or "walk" — for a pattern no list serves
// and, once the leaf has run, when a document it matched was not the one
// its source indexes.
func (m *Match) access() string {
	if k := indexKey(m.Pattern); k != "" && !m.walked {
		return "index " + k
	}
	return "walk"
}

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
func (m *Match) BufferedTuples() int { return len(m.pending) - m.pos }

// Close implements Operator.
func (m *Match) Close() error {
	m.ctx = nil
	m.pending, m.pos = nil, 0
	return m.Input.Close()
}
