package xmlql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth bounds how deeply a query nests. Each parenthesized
// expression, function call, pattern, template element and nested query
// is one level deeper than what holds it. The parser recurses once per
// level, taking goroutine stack in proportion, so a query nested past
// the bound fails with ErrTooDeep before the parser goes further. The
// deepest query of the tests nests 201 levels (TestParseDeepNesting),
// and the deepest of the benchmark's query pools and views 4.
const maxDepth = 1000

// ErrTooDeep is the error of a query nested past maxDepth.
var ErrTooDeep = errors.New("query nested too deeply")

// maxTokens bounds how many tokens a query text lexes to, so a huge body
// costs that many tokens before it fails, whatever it holds; one nested
// past maxDepth within them fails at the parser's enter. The longest
// query of the tests lexes to about 2000 tokens (maxDepth brackets around
// a comparison), and the longest of the benchmark's query pools and views
// to a few hundred.
const maxTokens = 1 << 14

// ErrTooLong is the error of a query text past maxTokens tokens.
var ErrTooLong = errors.New("query too long")

// Parse parses one XML-QL query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return (&parser{src: src, toks: toks}).parse()
}

// parse parses the whole token list as one query.
func (p *parser) parse() (*Query, error) {
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after query", p.peek().kind)
	}
	return q, nil
}

// MustParse parses a query and panics on error; for tests and static
// query definitions in code.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src  string
	toks []token
	i    int

	// When preparing: lits counts the literal tokens consumed so far,
	// slot maps each literal expression parsePrimary made from a literal
	// token to that literal's position in the text, and params receives
	// the ones a comparison takes as an operand (Shape.Prepare).
	lits   int
	slot   map[*LitExpr]int
	params []*LitExpr

	depth int // nesting levels entered and not yet left
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
		if t.kind == tokString || t.kind == tokNumber {
			p.lits++
		}
	}
	return t
}

// literal makes the expression of the literal token t, the next one to
// be consumed, and records its position when preparing.
func (p *parser) literal(t token) *LitExpr {
	lit := Lit{Number: t.kind == tokNumber, Text: t.text}.expr()
	if p.slot != nil {
		p.slot[lit] = p.lits
	}
	p.next()
	return lit
}

// operand makes e a parameter when it is a literal parsePrimary recorded:
// a direct operand of a comparison.
func (p *parser) operand(e Expr) {
	if lit, ok := e.(*LitExpr); ok && p.slot != nil {
		if i, ok := p.slot[lit]; ok {
			p.params[i] = lit
		}
	}
}

func (p *parser) errf(format string, args ...any) error {
	pos := p.peek().pos
	line := 1 + strings.Count(p.src[:min(pos, len(p.src))], "\n")
	return fmt.Errorf("xmlql: line %d (offset %d): %w", line, pos, fmt.Errorf(format, args...))
}

// enter descends one nesting level, failing past maxDepth; a caller that
// entered calls leave when it returns.
func (p *parser) enter() error {
	if p.depth == maxDepth {
		return p.errf("%w: more than %d levels", ErrTooDeep, maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// keywordIs reports whether t is the given case-insensitive keyword.
func keywordIs(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !keywordIs(p.peek(), kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	p.next()
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	q := &Query{}
	if keywordIs(p.peek(), "ON-UNAVAILABLE") {
		p.next()
		switch {
		case keywordIs(p.peek(), "FAIL"):
			p.next()
			q.OnUnavailable = "fail"
		case keywordIs(p.peek(), "PARTIAL"):
			p.next()
			q.OnUnavailable = "partial"
		default:
			return nil, p.errf("expected FAIL or PARTIAL after ON-UNAVAILABLE")
		}
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	for {
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, cond)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("CONSTRUCT"); err != nil {
		return nil, err
	}
	tmpl, err := p.parseTemplate()
	if err != nil {
		return nil, err
	}
	q.Construct = tmpl
	if keywordIs(p.peek(), "ORDER-BY") || keywordIs(p.peek(), "ORDERBY") {
		p.next()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if keywordIs(p.peek(), "DESCENDING") || keywordIs(p.peek(), "DESC") {
				p.next()
				key.Desc = true
			} else if keywordIs(p.peek(), "ASCENDING") || keywordIs(p.peek(), "ASC") {
				p.next()
			}
			q.OrderBy = append(q.OrderBy, key)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
	}
	return q, nil
}

func (p *parser) parseCondition() (Condition, error) {
	if p.peek().kind == tokLAngle {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("IN"); err != nil {
			return nil, err
		}
		src, err := p.parseSourceRef()
		if err != nil {
			return nil, err
		}
		return &PatternCond{Pattern: pat, Source: src}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &PredicateCond{Expr: e}, nil
}

func (p *parser) parseSourceRef() (SourceRef, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.next()
		return SourceRef{Name: t.text}, nil
	case tokVar:
		p.next()
		return SourceRef{Var: t.text}, nil
	case tokIdent:
		p.next()
		return SourceRef{Name: t.text}, nil
	default:
		return SourceRef{}, p.errf("expected source name or variable after IN, found %s", t.kind)
	}
}

// parsePattern parses '<' TagTest AttrPat* ('/>' | '>' content '</'[name]'>')
// followed by optional ELEMENT_AS / CONTENT_AS bindings.
func (p *parser) parsePattern() (*ElemPattern, error) {
	if p.peek().kind != tokLAngle {
		return nil, p.errf("expected '<' to start a pattern, found %s", p.peek().kind)
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	p.next()
	e := &ElemPattern{}

	// Tag test: optional '//' prefix, then name | * | $var | (a|b) |
	// dotted path a.b.c (regular-path abbreviation: desugars to nested
	// child patterns, attrs/content attaching to the innermost).
	descendant := false
	if p.peek().kind == tokDblSlash {
		p.next()
		descendant = true
	}
	var path []string // leading segments of a dotted path, outermost first
	switch t := p.peek(); {
	case t.kind == tokOp && t.text == "*":
		p.next()
		e.Tag.Wild = true
	case t.kind == tokVar:
		p.next()
		e.Tag.Var = t.text
	case t.kind == tokLParen:
		p.next()
		for {
			n := p.peek()
			if n.kind != tokIdent {
				return nil, p.errf("expected element name in alternation, found %s", n.kind)
			}
			p.next()
			e.Tag.Alts = append(e.Tag.Alts, n.text)
			if p.peek().kind == tokOp && p.peek().text == "|" {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ')' closing tag alternation")
		}
		p.next()
	case t.kind == tokIdent:
		p.next()
		e.Tag.Name = t.text
		for p.peek().kind == tokOp && p.peek().text == "." {
			p.next()
			n := p.peek()
			if n.kind != tokIdent {
				return nil, p.errf("expected element name after '.' in path")
			}
			p.next()
			path = append(path, e.Tag.Name)
			e.Tag.Name = n.text
		}
	default:
		return nil, p.errf("expected element name, '*' or variable in pattern tag, found %s", t.kind)
	}
	if len(path) == 0 {
		e.Tag.Descendant = descendant
	}

	// Attribute patterns.
	for p.peek().kind == tokIdent {
		name := p.next().text
		if !(p.peek().kind == tokOp && p.peek().text == "=") {
			return nil, p.errf("expected '=' after attribute %q", name)
		}
		p.next()
		switch v := p.peek(); v.kind {
		case tokVar:
			p.next()
			e.Attrs = append(e.Attrs, AttrPattern{Name: name, Var: v.text})
		case tokString:
			p.next()
			e.Attrs = append(e.Attrs, AttrPattern{Name: name, Lit: v.text})
		case tokNumber:
			p.next()
			e.Attrs = append(e.Attrs, AttrPattern{Name: name, Lit: v.text})
		default:
			return nil, p.errf("expected variable or literal for attribute %q", name)
		}
	}

	switch p.peek().kind {
	case tokSlashAngle:
		p.next()
	case tokRAngle:
		p.next()
		for p.peek().kind != tokLAngleSlash {
			switch t := p.peek(); t.kind {
			case tokLAngle:
				child, err := p.parsePattern()
				if err != nil {
					return nil, err
				}
				e.Content = append(e.Content, &ChildPattern{Elem: child})
			case tokVar:
				p.next()
				e.Content = append(e.Content, &VarContent{Var: t.text})
			case tokString:
				p.next()
				e.Content = append(e.Content, &TextContent{Text: t.text})
			case tokEOF:
				return nil, p.errf("unterminated pattern element <%s>", e.Tag)
			default:
				return nil, p.errf("unexpected %s inside pattern <%s>", t.kind, e.Tag)
			}
		}
		p.next() // consume '</'
		// Optional repeated tag name before '>' (dotted paths compare
		// by their last segment; alternation groups are skipped).
		if p.peek().kind == tokIdent {
			name := p.next().text
			for p.peek().kind == tokOp && p.peek().text == "." {
				p.next()
				n := p.peek()
				if n.kind != tokIdent {
					return nil, p.errf("expected element name after '.' in closing tag")
				}
				p.next()
				name = n.text
			}
			if e.Tag.Name != "" && name != e.Tag.Name {
				return nil, p.errf("mismatched closing tag </%s> for <%s>", name, e.Tag)
			}
		} else if p.peek().kind == tokVar {
			p.next()
		} else if p.peek().kind == tokOp && p.peek().text == "*" {
			p.next()
		} else if p.peek().kind == tokLParen {
			for p.peek().kind != tokRParen && p.peek().kind != tokEOF {
				p.next()
			}
			if p.peek().kind == tokRParen {
				p.next()
			}
		}
		if p.peek().kind != tokRAngle {
			return nil, p.errf("expected '>' to close pattern </%s>", e.Tag)
		}
		p.next()
	default:
		return nil, p.errf("expected '>' or '/>' in pattern <%s>", e.Tag)
	}

	// ELEMENT_AS / CONTENT_AS bindings.
	for {
		switch {
		case keywordIs(p.peek(), "ELEMENT_AS"):
			p.next()
			if p.peek().kind != tokVar {
				return nil, p.errf("expected variable after ELEMENT_AS")
			}
			e.ElementAs = p.next().text
		case keywordIs(p.peek(), "CONTENT_AS"):
			p.next()
			if p.peek().kind != tokVar {
				return nil, p.errf("expected variable after CONTENT_AS")
			}
			e.ContentAs = p.next().text
		default:
			return wrapPath(e, path, descendant), nil
		}
	}
}

// wrapPath desugars a dotted tag path: the already-parsed innermost
// pattern nests under one child pattern per leading segment, the
// descendant flag landing on the outermost.
func wrapPath(inner *ElemPattern, path []string, descendant bool) *ElemPattern {
	if len(path) == 0 {
		return inner
	}
	out := inner
	for i := len(path) - 1; i >= 0; i-- {
		out = &ElemPattern{
			Tag:     TagTest{Name: path[i]},
			Content: []ContentPattern{&ChildPattern{Elem: out}},
		}
	}
	out.Tag.Descendant = descendant
	return out
}

// parseTemplate parses a CONSTRUCT element template.
func (p *parser) parseTemplate() (*TmplElem, error) {
	if p.peek().kind != tokLAngle {
		return nil, p.errf("expected '<' to start a template, found %s", p.peek().kind)
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	p.next()
	e := &TmplElem{}
	switch t := p.peek(); t.kind {
	case tokIdent:
		p.next()
		e.Tag = t.text
	case tokVar:
		p.next()
		e.TagVar = t.text
	default:
		return nil, p.errf("expected element name or variable in template tag")
	}

	for p.peek().kind == tokIdent {
		name := p.next().text
		if !(p.peek().kind == tokOp && p.peek().text == "=") {
			return nil, p.errf("expected '=' after template attribute %q", name)
		}
		p.next()
		switch v := p.peek(); v.kind {
		case tokVar:
			p.next()
			e.Attrs = append(e.Attrs, TmplAttr{Name: name, Value: &VarExpr{Name: v.text}})
		case tokString:
			p.next()
			e.Attrs = append(e.Attrs, TmplAttr{Name: name, Value: &LitExpr{Value: v.text}})
		case tokNumber:
			p.next()
			e.Attrs = append(e.Attrs, TmplAttr{Name: name, Value: numberLit(v.text)})
		case tokLBrace:
			p.next()
			expr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.peek().kind != tokRBrace {
				return nil, p.errf("expected '}' after attribute expression")
			}
			p.next()
			e.Attrs = append(e.Attrs, TmplAttr{Name: name, Value: expr})
		default:
			return nil, p.errf("expected value for template attribute %q", name)
		}
	}

	switch p.peek().kind {
	case tokSlashAngle:
		p.next()
		return e, nil
	case tokRAngle:
		p.next()
	default:
		return nil, p.errf("expected '>' or '/>' in template <%s>", e.Tag)
	}

	for p.peek().kind != tokLAngleSlash {
		switch t := p.peek(); {
		case t.kind == tokLAngle:
			child, err := p.parseTemplate()
			if err != nil {
				return nil, err
			}
			e.Content = append(e.Content, &TmplChild{Elem: child})
		case t.kind == tokVar:
			p.next()
			e.Content = append(e.Content, &TmplExpr{Expr: &VarExpr{Name: t.text}})
		case t.kind == tokString:
			p.next()
			e.Content = append(e.Content, &TmplText{Text: t.text})
		case t.kind == tokNumber:
			p.next()
			e.Content = append(e.Content, &TmplExpr{Expr: numberLit(t.text)})
		case t.kind == tokLBrace:
			p.next()
			if keywordIs(p.peek(), "WHERE") {
				sub, err := p.parseQuery()
				if err != nil {
					return nil, err
				}
				e.Content = append(e.Content, &TmplQuery{Query: sub})
			} else {
				expr, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				e.Content = append(e.Content, &TmplExpr{Expr: expr})
			}
			if p.peek().kind != tokRBrace {
				return nil, p.errf("expected '}' in template content")
			}
			p.next()
		case keywordIs(t, "WHERE"):
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			e.Content = append(e.Content, &TmplQuery{Query: sub})
		case t.kind == tokEOF:
			return nil, p.errf("unterminated template element <%s>", e.Tag)
		default:
			return nil, p.errf("unexpected %s inside template <%s>", t.kind, e.Tag)
		}
	}
	p.next() // '</'
	if p.peek().kind == tokIdent {
		name := p.next().text
		if e.Tag != "" && name != e.Tag {
			return nil, p.errf("mismatched closing tag </%s> for template <%s>", name, e.Tag)
		}
	} else if p.peek().kind == tokVar {
		p.next()
	}
	if p.peek().kind != tokRAngle {
		return nil, p.errf("expected '>' closing template </%s>", e.Tag)
	}
	p.next()
	return e, nil
}

func numberLit(text string) *LitExpr {
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return &LitExpr{Value: i}
	}
	f, _ := strconv.ParseFloat(text, 64)
	return &LitExpr{Value: f}
}

// Expression grammar, loosest first: OR, AND, comparison, additive,
// multiplicative, primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for keywordIs(p.peek(), "OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for keywordIs(p.peek(), "AND") {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

// relOpFromToken maps the current token to a comparison operator if it is
// one, resolving the '<'/'>' tag-vs-comparison ambiguity in favour of
// comparison inside expressions.
func relOpFromToken(t token) (string, bool) {
	switch {
	case t.kind == tokLAngle:
		return "<", true
	case t.kind == tokRAngle:
		return ">", true
	case t.kind == tokOp && (t.text == "=" || t.text == "!=" || t.text == "<=" || t.text == ">="):
		return t.text, true
	default:
		return "", false
	}
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := relOpFromToken(p.peek()); ok {
		p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		p.operand(l)
		p.operand(r)
		return &BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "*" || p.peek().text == "/") {
		op := p.next().text
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

// aggregateOps are the aggregate function names that take a nested query.
var aggregateOps = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokVar:
		p.next()
		return &VarExpr{Name: t.text}, nil
	case t.kind == tokNumber || t.kind == tokString:
		return p.literal(t), nil
	case keywordIs(t, "TRUE"):
		p.next()
		return &LitExpr{Value: true}, nil
	case keywordIs(t, "FALSE"):
		p.next()
		return &LitExpr{Value: false}, nil
	case t.kind == tokLParen:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ')'")
		}
		p.next()
		return e, nil
	case t.kind == tokIdent:
		// Function call: name '(' args ')'. Aggregates take a braced or
		// bare nested query.
		name := strings.ToLower(t.text)
		if p.peek2().kind != tokLParen {
			return nil, p.errf("unexpected identifier %q in expression (did you mean a quoted string or $%s?)", t.text, t.text)
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next() // name
		p.next() // '('
		if aggregateOps[name] && (p.peek().kind == tokLBrace || keywordIs(p.peek(), "WHERE")) {
			braced := p.peek().kind == tokLBrace
			if braced {
				p.next()
			}
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if braced {
				if p.peek().kind != tokRBrace {
					return nil, p.errf("expected '}' closing aggregate subquery")
				}
				p.next()
			}
			if p.peek().kind != tokRParen {
				return nil, p.errf("expected ')' closing %s(...)", name)
			}
			p.next()
			return &AggExpr{Op: name, Query: sub}, nil
		}
		var args []Expr
		if p.peek().kind != tokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peek().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ')' closing %s(...)", name)
		}
		p.next()
		return &FuncExpr{Name: name, Args: args}, nil
	default:
		return nil, p.errf("unexpected %s in expression", t.kind)
	}
}
