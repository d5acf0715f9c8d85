package xmlql

// Lit is one string or number literal of a query text.
type Lit struct {
	Number bool
	// Text is a number's spelling, or a string's value with its escapes
	// resolved.
	Text string
}

// expr is the literal's expression, as the parser makes it.
func (l Lit) expr() *LitExpr {
	if l.Number {
		return numberLit(l.Text)
	}
	return &LitExpr{Value: l.Text}
}

// Shape is a query text reduced to what preparing it depends on. Key is
// its token sequence with every string and number literal replaced by a
// slot of the literal's type; Lits are those literals in text order.
// Whitespace and comments are in neither, and two texts with equal keys
// parse to the same tree up to the values of their literals. A Shape is
// reusable: Scan overwrites it, keeping its buffers, so a caller that
// keeps one scans without allocating per token.
type Shape struct {
	Key  []byte
	Lits []Lit
	src  string
	toks []token
}

// maxPooledTokens and maxPooledKey are the most tokens and key bytes a
// Shape may have room for to be pooled (Poolable): the benchmark's
// longest query texts lex to a few hundred tokens.
const (
	maxPooledTokens = 4096
	maxPooledKey    = 64 << 10
)

// Poolable reports whether s's buffers are small enough to reuse: ones
// grown by a huge query text must not pin their memory in a pool for
// every later small one.
func (s *Shape) Poolable() bool {
	return cap(s.toks) <= maxPooledTokens && cap(s.Key) <= maxPooledKey
}

// Scan lexes src into s. It fails where Parse fails lexing.
func (s *Shape) Scan(src string) error {
	toks, err := lexInto(s.toks, src)
	s.toks = toks
	if err != nil {
		return err
	}
	s.src = src
	key, lits := s.Key[:0], s.Lits[:0]
	for _, t := range toks {
		// Token kinds are below every byte an identifier, variable or
		// operator is spelled with, so the kind bytes delimit the texts.
		key = append(key, byte(t.kind))
		switch t.kind {
		case tokString, tokNumber:
			lits = append(lits, Lit{Number: t.kind == tokNumber, Text: t.text})
		default:
			key = append(key, t.text...)
		}
	}
	s.Key, s.Lits = key, lits
	return nil
}

// Prepared is a query parsed once for every text of its shape whose
// pinned literals equal its own.
//
// A literal is a parameter when it is a direct operand of a comparison:
// only evaluation and planning read its value, and both run per call.
// Every other literal is pinned, because unfolding or compilation reads
// it: pattern text and attribute values (unification compares them), a
// source name, a function argument (sqlgen checks a contains needle for
// LIKE metacharacters), template text.
type Prepared struct {
	Query *Query
	// Lits are the literals of the text it was parsed from.
	Lits []Lit
	// Params holds, for each literal, the expression it became if it is
	// a parameter, and nil if it is pinned.
	Params []*LitExpr
}

// Prepare parses the scanned text. It fails where Parse fails.
func (s *Shape) Prepare() (*Prepared, error) {
	p := &parser{src: s.src, toks: s.toks, slot: map[*LitExpr]int{}, params: make([]*LitExpr, len(s.Lits))}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	return &Prepared{Query: q, Lits: append([]Lit(nil), s.Lits...), Params: p.params}, nil
}

// Serves reports whether lits, the literals of a text of the prepared
// query's shape, agree with its own on every pinned literal.
func (p *Prepared) Serves(lits []Lit) bool {
	if len(lits) != len(p.Lits) {
		return false
	}
	for i, par := range p.Params {
		if par == nil && lits[i] != p.Lits[i] {
			return false
		}
	}
	return true
}

// Rebinding pairs each parameter whose value lits changes with the
// expression of its new value, for Rebind. lits must be served.
func (p *Prepared) Rebinding(lits []Lit) (from, to []*LitExpr) {
	for i, par := range p.Params {
		if par != nil && lits[i] != p.Lits[i] {
			from = append(from, par)
			to = append(to, lits[i].expr())
		}
	}
	return from, to
}

// Rebind returns q with each occurrence of the literal expression from[i]
// replaced by to[i]. It copies only what leads to a replaced literal and
// shares the rest, so q itself is unchanged, and it is q when from is
// empty or occurs nowhere. A query unfolded from a prepared one holds the
// prepared parameters themselves (unfolding copies the expressions
// around a literal, never the literal), so Rebind binds the rewrites too.
func Rebind(q *Query, from, to []*LitExpr) *Query {
	if len(from) == 0 {
		return q
	}
	r := rebinder{from: from, to: to}
	return r.query(q)
}

type rebinder struct{ from, to []*LitExpr }

func (r rebinder) query(q *Query) *Query {
	var where []Condition
	for i, c := range q.Where {
		pc, ok := c.(*PredicateCond)
		if !ok {
			continue
		}
		if e := r.expr(pc.Expr); e != pc.Expr {
			if where == nil {
				where = append([]Condition(nil), q.Where...)
			}
			where[i] = &PredicateCond{Expr: e}
		}
	}
	construct := r.tmpl(q.Construct)
	var order []OrderKey
	for i, k := range q.OrderBy {
		if e := r.expr(k.Expr); e != k.Expr {
			if order == nil {
				order = append([]OrderKey(nil), q.OrderBy...)
			}
			order[i].Expr = e
		}
	}
	if where == nil && construct == q.Construct && order == nil {
		return q
	}
	out := *q
	if where != nil {
		out.Where = where
	}
	out.Construct = construct
	if order != nil {
		out.OrderBy = order
	}
	return &out
}

func (r rebinder) tmpl(t *TmplElem) *TmplElem {
	if t == nil {
		return nil
	}
	var attrs []TmplAttr
	for i, a := range t.Attrs {
		if e := r.expr(a.Value); e != a.Value {
			if attrs == nil {
				attrs = append([]TmplAttr(nil), t.Attrs...)
			}
			attrs[i].Value = e
		}
	}
	var content []TmplContent
	for i, c := range t.Content {
		var nc TmplContent
		switch x := c.(type) {
		case *TmplChild:
			if el := r.tmpl(x.Elem); el != x.Elem {
				nc = &TmplChild{Elem: el}
			}
		case *TmplExpr:
			if e := r.expr(x.Expr); e != x.Expr {
				nc = &TmplExpr{Expr: e}
			}
		case *TmplQuery:
			if sq := r.query(x.Query); sq != x.Query {
				nc = &TmplQuery{Query: sq}
			}
		}
		if nc != nil {
			if content == nil {
				content = append([]TmplContent(nil), t.Content...)
			}
			content[i] = nc
		}
	}
	if attrs == nil && content == nil {
		return t
	}
	out := *t
	if attrs != nil {
		out.Attrs = attrs
	}
	if content != nil {
		out.Content = content
	}
	return &out
}

func (r rebinder) expr(e Expr) Expr {
	switch x := e.(type) {
	case *LitExpr:
		for i, f := range r.from {
			if f == x {
				return r.to[i]
			}
		}
	case *BinExpr:
		l, rr := r.expr(x.L), r.expr(x.R)
		if l != x.L || rr != x.R {
			return &BinExpr{Op: x.Op, L: l, R: rr}
		}
	case *FuncExpr:
		var args []Expr
		for i, a := range x.Args {
			if na := r.expr(a); na != a {
				if args == nil {
					args = append([]Expr(nil), x.Args...)
				}
				args[i] = na
			}
		}
		if args != nil {
			return &FuncExpr{Name: x.Name, Args: args}
		}
	case *AggExpr:
		if q := r.query(x.Query); q != x.Query {
			return &AggExpr{Op: x.Op, Query: q}
		}
	}
	return e
}
