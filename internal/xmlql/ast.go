// Package xmlql implements the XML-QL query language (Deutsch, Fernandez,
// Florescu, Levy, Suciu — the 1998 W3C note the paper cites as its query
// language). The dialect here covers everything §4 of the paper demands:
// SQL-equivalent data types and operators, document order, navigation up,
// down and sideways, recursion (descendant patterns), nested queries for
// grouping, and ORDER-BY.
//
// Dialect notes (documented deviations from the 1998 note):
//   - literal text inside patterns and templates is always quoted, which
//     keeps the grammar unambiguous without a mode-switching lexer;
//   - Skolem-function grouping is not supported; nested queries express
//     the same grouping;
//   - aggregate functions (count, sum, avg, min, max) may be applied to
//     a braced nested query, giving the "standard SQL engine" aggregates
//     the paper's conclusion requires.
package xmlql

import (
	"fmt"
	"strings"
)

// Query is one [ON-UNAVAILABLE ...] WHERE ... CONSTRUCT ...
// [ORDER-BY ...] block.
type Query struct {
	Where     []Condition
	Construct *TmplElem
	OrderBy   []OrderKey
	// OnUnavailable lets the query specify the behaviour when sources
	// are down: "", "fail", or "partial". §3.4 poses "whether and how to
	// allow the query to specify behavior when data sources are
	// unavailable" as an open question; this dialect answers it with an
	// optional ON-UNAVAILABLE FAIL | PARTIAL prelude.
	OnUnavailable string
}

// Condition is a WHERE-clause item: either a pattern bound to a source or
// a predicate expression.
type Condition interface{ isCondition() }

// PatternCond matches an element pattern against a source or a bound
// variable's content.
type PatternCond struct {
	Pattern *ElemPattern
	Source  SourceRef
}

func (*PatternCond) isCondition() {}

// PredicateCond filters bindings by a boolean expression.
type PredicateCond struct {
	Expr Expr
}

func (*PredicateCond) isCondition() {}

// SourceRef names where a pattern is matched: a named source/mediated
// schema (Name) or the content of a previously bound variable (Var).
type SourceRef struct {
	Name string
	Var  string
}

// String renders the source reference as written in a query.
func (s SourceRef) String() string {
	if s.Var != "" {
		return "$" + s.Var
	}
	return fmt.Sprintf("%q", s.Name)
}

// TagTest matches an element name in a pattern.
type TagTest struct {
	Name       string   // exact name, or "" when Wild, Var or Alts is set
	Wild       bool     // <*> — any element
	Var        string   // <$t> — any element, binding its tag name
	Descendant bool     // <//name> — the element may be any depth below
	Alts       []string // <(a|b|c)> — regular-path alternation over names
}

// Matches reports whether the test accepts an element name (ignoring
// the Descendant axis flag, which callers handle).
func (t TagTest) Matches(name string) bool {
	switch {
	case t.Wild || t.Var != "":
		return true
	case len(t.Alts) > 0:
		for _, a := range t.Alts {
			if a == name {
				return true
			}
		}
		return false
	default:
		return t.Name == name
	}
}

// String renders the tag test as written in a query.
func (t TagTest) String() string {
	prefix := ""
	if t.Descendant {
		prefix = "//"
	}
	switch {
	case t.Var != "":
		return prefix + "$" + t.Var
	case t.Wild:
		return prefix + "*"
	case len(t.Alts) > 0:
		return prefix + "(" + strings.Join(t.Alts, "|") + ")"
	default:
		return prefix + t.Name
	}
}

// AttrPattern matches one attribute: to a literal value or binding a
// variable.
type AttrPattern struct {
	Name string
	Var  string // bind attribute value to $Var, or
	Lit  string // require it to equal Lit (when Var == "")
}

// ElemPattern is an element pattern in a WHERE clause.
type ElemPattern struct {
	Tag       TagTest
	Attrs     []AttrPattern
	Content   []ContentPattern
	ElementAs string // ELEMENT_AS $e — bind the matched element node
	ContentAs string // CONTENT_AS $c — bind the element's content
}

// ContentPattern is one item inside an element pattern's content.
type ContentPattern interface{ isContentPattern() }

// ChildPattern requires a child element matching the nested pattern.
type ChildPattern struct{ Elem *ElemPattern }

func (*ChildPattern) isContentPattern() {}

// VarContent binds the element's atomized content to a variable.
type VarContent struct{ Var string }

func (*VarContent) isContentPattern() {}

// TextContent requires the element's text to equal the literal.
type TextContent struct{ Text string }

func (*TextContent) isContentPattern() {}

// Expr is a scalar expression over bound variables.
type Expr interface{ isExpr() }

// VarExpr references a bound variable.
type VarExpr struct{ Name string }

func (*VarExpr) isExpr() {}

// LitExpr is a literal constant: string, int64, float64, or bool.
type LitExpr struct{ Value any }

func (*LitExpr) isExpr() {}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   string // = != < <= > >= + - * / AND OR
	L, R Expr
}

func (*BinExpr) isExpr() {}

// FuncExpr applies a built-in function (contains, startswith, lower,
// upper, strlen, not, ...).
type FuncExpr struct {
	Name string
	Args []Expr
}

func (*FuncExpr) isExpr() {}

// AggExpr applies an aggregate to the values produced by a nested query.
type AggExpr struct {
	Op    string // count sum avg min max
	Query *Query
}

func (*AggExpr) isExpr() {}

// OrderKey is one ORDER-BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// TmplElem is an element template in a CONSTRUCT clause.
type TmplElem struct {
	Tag     string
	TagVar  string // <$t> — tag name from a bound variable
	Attrs   []TmplAttr
	Content []TmplContent
}

// TmplAttr is one constructed attribute.
type TmplAttr struct {
	Name  string
	Value Expr
}

// TmplContent is one item of constructed content.
type TmplContent interface{ isTmplContent() }

// TmplChild is a nested element template.
type TmplChild struct{ Elem *TmplElem }

func (*TmplChild) isTmplContent() {}

// TmplExpr splices an expression's value into content.
type TmplExpr struct{ Expr Expr }

func (*TmplExpr) isTmplContent() {}

// TmplText is literal text content.
type TmplText struct{ Text string }

func (*TmplText) isTmplContent() {}

// TmplQuery nests a subquery whose constructed results are spliced into
// content — XML-QL's grouping mechanism.
type TmplQuery struct{ Query *Query }

func (*TmplQuery) isTmplContent() {}

// Vars returns the variables a pattern binds, in first-appearance order.
func (p *ElemPattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(e *ElemPattern)
	walk = func(e *ElemPattern) {
		add(e.Tag.Var)
		add(e.ElementAs)
		add(e.ContentAs)
		for _, a := range e.Attrs {
			add(a.Var)
		}
		for _, c := range e.Content {
			switch x := c.(type) {
			case *ChildPattern:
				walk(x.Elem)
			case *VarContent:
				add(x.Var)
			}
		}
	}
	walk(p)
	return out
}

// ExprVars returns the variables an expression references. For an
// aggregate's nested query that is every variable the query mentions —
// in its patterns, their IN clauses, its predicates and its CONSTRUCT,
// recursively — because any of them may be a correlation variable bound
// by the outer query; which ones are cannot be told without the outer
// scope. Reporting one that is only local is harmless: a predicate that
// waits for it is placed after every join.
func ExprVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(Expr)
	var walkQuery func(*Query)
	var walkTmpl func(*TmplElem)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *VarExpr:
			add(x.Name)
		case *BinExpr:
			walk(x.L)
			walk(x.R)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *AggExpr:
			walkQuery(x.Query)
		}
	}
	walkQuery = func(q *Query) {
		for _, c := range q.Where {
			switch x := c.(type) {
			case *PatternCond:
				for _, v := range x.Pattern.Vars() {
					add(v)
				}
				add(x.Source.Var)
			case *PredicateCond:
				walk(x.Expr)
			}
		}
		if q.Construct != nil {
			walkTmpl(q.Construct)
		}
		for _, k := range q.OrderBy {
			walk(k.Expr)
		}
	}
	walkTmpl = func(t *TmplElem) {
		add(t.TagVar)
		for _, a := range t.Attrs {
			walk(a.Value)
		}
		for _, c := range t.Content {
			switch x := c.(type) {
			case *TmplChild:
				walkTmpl(x.Elem)
			case *TmplExpr:
				walk(x.Expr)
			case *TmplQuery:
				walkQuery(x.Query)
			}
		}
	}
	walk(e)
	return out
}

// String renders the query in canonical XML-QL syntax; the result parses
// back to an equivalent AST.
func (q *Query) String() string {
	var sb strings.Builder
	printQuery(&sb, q, 0)
	return sb.String()
}
