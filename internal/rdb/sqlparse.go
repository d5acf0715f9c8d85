package rdb

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmldm"
)

// The SQL dialect is what sqlgen compiles a fragment to, plus what loads
// the data: CREATE TABLE, CREATE [UNIQUE] INDEX, INSERT and a SELECT of
// one table. Tables are append-only, so there is no UPDATE, DELETE or
// DROP TABLE. A SELECT is
//
//	SELECT (* | column, …) FROM table
//	  [WHERE expr] [ORDER BY column [ASC|DESC], …]
//
// WHERE expressions are literals, unqualified columns, arithmetic,
// comparisons (= != < <= > >=), AND, OR, prefix NOT, LIKE, IN and the
// functions lower, upper, trim and length (xmldm.TextFunc). Joins,
// aggregates, DISTINCT and LIMIT run in the mediator, not in a source.

// Stmt is a parsed SQL statement.
type Stmt interface{ isStmt() }

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name   string
	Schema Schema
}

func (*CreateTableStmt) isStmt() {}

// CreateIndexStmt is CREATE [UNIQUE] INDEX ON table (column).
type CreateIndexStmt struct {
	Table  string
	Column string
	Unique bool
}

func (*CreateIndexStmt) isStmt() {}

// InsertStmt is INSERT INTO ... VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]SQLExpr
}

func (*InsertStmt) isStmt() {}

// SelectStmt is a SELECT query over one table. Items names the select
// list's columns, a column as often as it is listed.
type SelectStmt struct {
	Items   []string
	Star    bool
	From    string
	Where   SQLExpr
	OrderBy []SQLOrderItem
}

func (*SelectStmt) isStmt() {}

// SQLOrderItem is one ORDER BY key: a column, ascending unless Desc.
type SQLOrderItem struct {
	Col  string
	Desc bool
}

// SQLExpr is a SQL scalar expression.
type SQLExpr interface{ isSQLExpr() }

// ColRef references a column of the table.
type ColRef struct{ Col string }

func (*ColRef) isSQLExpr() {}

// SQLLit is a literal value.
type SQLLit struct{ Value Value }

func (*SQLLit) isSQLExpr() {}

// SQLBin is a binary operation: comparison, arithmetic, AND, OR.
type SQLBin struct {
	Op   string
	L, R SQLExpr
}

func (*SQLBin) isSQLExpr() {}

// SQLNot negates a boolean expression.
type SQLNot struct{ E SQLExpr }

func (*SQLNot) isSQLExpr() {}

// SQLLike is expr LIKE 'pattern' with % and _ wildcards.
type SQLLike struct {
	E       SQLExpr
	Pattern string
}

func (*SQLLike) isSQLExpr() {}

// SQLIn is expr IN (literals...).
type SQLIn struct {
	E    SQLExpr
	List []SQLExpr
}

func (*SQLIn) isSQLExpr() {}

// SQLFunc is a scalar function call.
type SQLFunc struct {
	Name string
	Args []SQLExpr
}

func (*SQLFunc) isSQLExpr() {}

// --- lexer ---

type sqlTok struct {
	kind string // "ident" "num" "str" "op" "eof"
	text string
	pos  int
}

func sqlLex(src string) ([]sqlTok, error) {
	toks, err := sqlLexInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// sqlLexInto tokenizes src into toks[:0], so a caller that keeps the
// slice lexes without allocating once it has grown. It returns the slice
// even on error, for the same reuse.
func sqlLexInto(toks []sqlTok, src string) ([]sqlTok, error) {
	toks = toks[:0]
	i := 0
	emit := func(kind, text string, pos int) { toks = append(toks, sqlTok{kind, text, pos}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			// A string without a '' escape is a slice of the source.
			if end := strings.IndexByte(src[i:], '\''); end >= 0 && !strings.HasPrefix(src[i+end+1:], "'") {
				emit("str", src[i:i+end], start)
				i += end + 1
				continue
			}
			var sb strings.Builder
			for {
				if i >= len(src) {
					return toks, fmt.Errorf("rdb: unterminated string at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' { // '' escape
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			emit("str", sb.String(), start)
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			emit("num", src[start:i], start)
		case isSQLIdentStart(c):
			start := i
			for i < len(src) && (isSQLIdentStart(src[i]) || src[i] >= '0' && src[i] <= '9') {
				i++
			}
			emit("ident", src[start:i], start)
		case strings.ContainsRune("(),*=+-/", rune(c)):
			emit("op", string(c), i)
			i++
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				emit("op", src[i:i+2], i)
				i += 2
			} else {
				emit("op", "<", i)
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				emit("op", ">=", i)
				i += 2
			} else {
				emit("op", ">", i)
				i++
			}
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				emit("op", "!=", i)
				i += 2
			} else {
				return toks, fmt.Errorf("rdb: unexpected '!' at offset %d", i)
			}
		case c == ';':
			emit("op", ";", i)
			i++
		default:
			return toks, fmt.Errorf("rdb: unexpected character %q at offset %d", c, i)
		}
	}
	emit("eof", "", i)
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// --- parser ---

type sqlParser struct {
	toks []sqlTok
	i    int
	// slots, when preparing, records by token index what a SELECT made of
	// each literal and LIKE pattern (stmtCache.parse).
	slots map[int]sqlSlot
}

// ParseSQL parses one SQL statement.
func ParseSQL(src string) (Stmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	return (&sqlParser{toks: toks}).parse()
}

// parse parses the whole token list as one statement.
func (p *sqlParser) parse() (Stmt, error) {
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("rdb: unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

func (p *sqlParser) peek() sqlTok { return p.toks[p.i] }

func (p *sqlParser) next() sqlTok {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

// record notes, when preparing, what the token at index i became.
func (p *sqlParser) record(i int, s sqlSlot) {
	if p.slots != nil {
		p.slots[i] = s
	}
}

func (p *sqlParser) kw(word string) bool {
	t := p.peek()
	return t.kind == "ident" && strings.EqualFold(t.text, word)
}

func (p *sqlParser) acceptKw(word string) bool {
	if p.kw(word) {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(word string) error {
	if !p.acceptKw(word) {
		return fmt.Errorf("rdb: expected %s, found %q", word, p.peek().text)
	}
	return nil
}

func (p *sqlParser) expectOp(op string) error {
	t := p.peek()
	if t.kind != "op" || t.text != op {
		return fmt.Errorf("rdb: expected %q, found %q", op, t.text)
	}
	p.next()
	return nil
}

func (p *sqlParser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == "op" && t.text == op {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) ident() (string, error) {
	t := p.peek()
	if t.kind != "ident" {
		return "", fmt.Errorf("rdb: expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *sqlParser) parseStmt() (Stmt, error) {
	switch {
	case p.kw("SELECT"):
		return p.parseSelect()
	case p.kw("INSERT"):
		return p.parseInsert()
	case p.kw("CREATE"):
		return p.parseCreate()
	default:
		return nil, fmt.Errorf("rdb: unknown statement starting with %q", p.peek().text)
	}
}

func (p *sqlParser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, fmt.Errorf("rdb: UNIQUE TABLE is not valid")
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		schema := Schema{PrimaryKey: -1}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typName, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct, err := parseColType(typName)
			if err != nil {
				return nil, err
			}
			// Swallow length suffixes like VARCHAR(64).
			if p.acceptOp("(") {
				for p.peek().kind == "num" || p.acceptOp(",") {
					p.next()
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			schema.Columns = append(schema.Columns, Column{Name: col, Type: ct})
			if p.acceptKw("PRIMARY") {
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				schema.PrimaryKey = len(schema.Columns) - 1
			}
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Schema: schema}, nil
	case p.acceptKw("INDEX"):
		// CREATE [UNIQUE] INDEX [name] ON table (column)
		if p.peek().kind == "ident" && !p.kw("ON") {
			p.next() // optional index name, unused
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Table: table, Column: col, Unique: unique}, nil
	default:
		return nil, fmt.Errorf("rdb: expected TABLE or INDEX after CREATE")
	}
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []SQLExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *sqlParser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	st := &SelectStmt{}
	if p.acceptOp("*") {
		st.Star = true
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Items = append(st.Items, col)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.From = from
	if p.acceptKw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := SQLOrderItem{Col: col}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return st, nil
}

// Expression precedence: OR < AND < NOT < comparison/LIKE/IN < add < mul < primary.
func (p *sqlParser) parseExpr() (SQLExpr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (SQLExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &SQLBin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (SQLExpr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &SQLBin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (SQLExpr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &SQLNot{E: e}, nil
	}
	return p.parseCmp()
}

func (p *sqlParser) parseCmp() (SQLExpr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == "op" && (t.text == "=" || t.text == "!=" ||
		t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">="):
		p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &SQLBin{Op: t.text, L: l, R: r}, nil
	case p.acceptKw("LIKE"):
		return p.parseLike(l)
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &SQLIn{E: l}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	return l, nil
}

// parseLike parses the pattern of l LIKE 'pattern'.
func (p *sqlParser) parseLike(l SQLExpr) (SQLExpr, error) {
	pt := p.peek()
	if pt.kind != "str" {
		return nil, fmt.Errorf("rdb: LIKE requires a string pattern")
	}
	like := &SQLLike{E: l, Pattern: pt.text}
	p.record(p.i, sqlSlot{like: like})
	p.next()
	return like, nil
}

func (p *sqlParser) parseAdd() (SQLExpr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "op" && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &SQLBin{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parseMul() (SQLExpr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "op" && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &SQLBin{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parsePrimary() (SQLExpr, error) {
	t := p.peek()
	switch {
	case t.kind == "num" || t.kind == "str":
		v, err := sqlLiteral(t)
		if err != nil {
			return nil, err
		}
		lit := &SQLLit{Value: v}
		p.record(p.i, sqlSlot{lit: lit})
		p.next()
		return lit, nil
	case t.kind == "op" && t.text == "-":
		p.next()
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &SQLBin{Op: "-", L: &SQLLit{Value: xmldm.Int(0)}, R: e}, nil
	case t.kind == "op" && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.kw("NULL"):
		p.next()
		return &SQLLit{Value: xmldm.Null{}}, nil
	case p.kw("TRUE"):
		p.next()
		return &SQLLit{Value: xmldm.Bool(true)}, nil
	case p.kw("FALSE"):
		p.next()
		return &SQLLit{Value: xmldm.Bool(false)}, nil
	case t.kind == "ident":
		p.next()
		// Function call?
		if p.acceptOp("(") {
			fn := &SQLFunc{Name: strings.ToLower(t.text)}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, a)
					if p.acceptOp(",") {
						continue
					}
					break
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fn, nil
		}
		return &ColRef{Col: t.text}, nil
	default:
		return nil, fmt.Errorf("rdb: unexpected %q in expression", t.text)
	}
}

// sqlLiteral is the value of a number or string token.
func sqlLiteral(t sqlTok) (Value, error) {
	if t.kind == "str" {
		return xmldm.String(t.text), nil
	}
	if strings.Contains(t.text, ".") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("rdb: bad number %q", t.text)
		}
		return xmldm.Float(f), nil
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err == nil {
		return xmldm.Int(n), nil
	}
	// An integer past the int64 range is a FLOAT: it is how a large float
	// is written, since numbers have no exponent.
	if f, ferr := strconv.ParseFloat(t.text, 64); ferr == nil {
		return xmldm.Float(f), nil
	}
	return nil, fmt.Errorf("rdb: bad number %q", t.text)
}
