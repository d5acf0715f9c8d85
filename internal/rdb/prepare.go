package rdb

import (
	"strings"
	"sync"
	"sync/atomic"
)

// maxPrepared bounds the parsed SELECTs a database keeps. Shapes fill
// it, not texts — literals are lifted out of the key — so a source sent
// one compiled fragment per query shape needs one entry per shape. Past
// the bound an arbitrary entry makes room.
const maxPrepared = 256

// PreparedStats counts Exec's SELECTs by whether their shape was parsed
// already (a hit binds the cached statement) or had to be (a miss).
type PreparedStats struct {
	Hits, Misses int64
	Entries      int
}

// PreparedStats reports the statement cache's traffic.
func (db *Database) PreparedStats() PreparedStats {
	c := &db.stmts
	c.mu.RLock()
	defer c.mu.RUnlock()
	return PreparedStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: len(c.entries)}
}

// stmtCache keeps parsed SELECTs by shape: the token sequence with every
// number and string replaced by a slot. A parsed statement is syntax
// only, so no change to the database makes one stale.
type stmtCache struct {
	mu      sync.RWMutex
	entries map[string]*preparedSelect // guarded by mu
	hits    atomic.Int64
	misses  atomic.Int64
}

// preparedSelect is a SELECT parsed once for its shape, with what it made
// of each of the shape's slots.
type preparedSelect struct {
	stmt  *SelectStmt
	slots []sqlSlot
}

// sqlSlot is what a SELECT made of one lifted token (sqlLifted), which a
// text of the same shape rebinds: a literal, or else a LIKE pattern. In a
// SELECT that parses, every lifted token is one of the two.
type sqlSlot struct {
	text string // the token's text in the statement parsed
	lit  *SQLLit
	like *SQLLike
}

// sqlScan is a reusable buffer for one statement's tokens and shape key.
type sqlScan struct {
	toks []sqlTok
	key  []byte
}

var sqlScans = sync.Pool{New: func() any { return new(sqlScan) }}

// parse is ParseSQL for Exec: a SELECT of a shape parsed before is the
// cached statement bound to this text's literals. The statement returned
// may be shared and must not be modified.
func (c *stmtCache) parse(sql string) (Stmt, error) {
	sc := sqlScans.Get().(*sqlScan)
	defer sqlScans.Put(sc)
	toks, err := sqlLexInto(sc.toks, sql)
	sc.toks = toks
	if err != nil {
		return nil, err
	}
	if toks[0].kind != "ident" || !strings.EqualFold(toks[0].text, "SELECT") {
		return (&sqlParser{toks: toks}).parse()
	}
	sc.key = sqlShape(sc.key[:0], toks)
	c.mu.RLock()
	ps := c.entries[string(sc.key)]
	c.mu.RUnlock()
	if ps != nil {
		if st := ps.bind(toks); st != nil {
			c.hits.Add(1)
			return st, nil
		}
	}
	c.misses.Add(1)
	p := &sqlParser{toks: toks, slots: map[int]sqlSlot{}}
	stmt, err := p.parse()
	if err != nil {
		return nil, err
	}
	ps = &preparedSelect{stmt: stmt.(*SelectStmt)}
	for i, t := range toks {
		if sqlLifted(t) {
			s := p.slots[i]
			s.text = t.text
			ps.slots = append(ps.slots, s)
		}
	}
	c.put(string(sc.key), ps)
	return ps.stmt, nil
}

func (c *stmtCache) put(key string, ps *preparedSelect) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string]*preparedSelect{}
	}
	if _, ok := c.entries[key]; !ok && len(c.entries) >= maxPrepared {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = ps
}

// sqlLifted reports whether t is a slot of its statement's shape rather
// than part of the key: a number or a string.
func sqlLifted(t sqlTok) bool { return t.kind == "num" || t.kind == "str" }

// sqlShape appends toks' shape key to key: every token's kind, then its
// text unless the token is lifted. Kinds are control bytes, which no
// identifier or operator contains, so they delimit the texts.
func sqlShape(key []byte, toks []sqlTok) []byte {
	for _, t := range toks {
		var kind byte
		switch t.kind {
		case "ident":
			kind = 1
		case "num":
			kind = 2
		case "str":
			kind = 3
		case "op":
			kind = 4
		default:
			kind = 5
		}
		if sqlLifted(t) {
			key = append(key, kind|8)
			continue
		}
		key = append(key, kind)
		key = append(key, t.text...)
	}
	return key
}

// bind is the statement toks, a text of the prepared shape, parses to:
// the prepared one with the slots whose text differs rebound, sharing
// every part without one. It is nil when a number does not parse; the
// caller then parses the text, and reports the error the parser finds.
func (ps *preparedSelect) bind(toks []sqlTok) *SelectStmt {
	var b sqlBinding
	k := 0
	for _, t := range toks {
		if !sqlLifted(t) {
			continue
		}
		s := ps.slots[k]
		k++
		if t.text == s.text {
			continue
		}
		if s.lit == nil {
			b.likes = append(b.likes, likeBinding{s.like, t.text})
			continue
		}
		v, err := sqlLiteral(t)
		if err != nil {
			return nil
		}
		b.lits = append(b.lits, [2]*SQLLit{s.lit, {Value: v}})
	}
	if len(b.lits)+len(b.likes) == 0 {
		return ps.stmt
	}
	return b.stmt(ps.stmt)
}

// sqlBinding is one text's values for a prepared statement's slots.
type sqlBinding struct {
	lits  [][2]*SQLLit // the prepared literal, its replacement
	likes []likeBinding
}

type likeBinding struct {
	like    *SQLLike
	pattern string
}

// stmt copies st along the paths to the rebound slots.
func (b *sqlBinding) stmt(st *SelectStmt) *SelectStmt {
	out := *st
	out.Where = mapSQL(st.Where, b.leaf)
	return &out
}

// leaf rebinds one node of the prepared statement (orig) whose children
// are already rebound (cur).
func (b *sqlBinding) leaf(orig, cur SQLExpr) SQLExpr {
	switch x := orig.(type) {
	case *SQLLit:
		for _, l := range b.lits {
			if l[0] == x {
				return l[1]
			}
		}
	case *SQLLike:
		for _, l := range b.likes {
			if l.like == x {
				return &SQLLike{E: cur.(*SQLLike).E, Pattern: l.pattern}
			}
		}
	}
	return cur
}

// mapSQL rebuilds e bottom-up: each node's children first, then the node
// through f, which receives it as it was (orig) and with its rebuilt
// children (cur, orig itself when none changed) and returns what takes
// its place. Only the nodes above a replacement are copied, and e comes
// back itself when f replaces nothing. A nil e stays nil.
func mapSQL(e SQLExpr, f func(orig, cur SQLExpr) SQLExpr) SQLExpr {
	cur := e
	switch x := e.(type) {
	case nil:
		return nil
	case *SQLBin:
		if l, r := mapSQL(x.L, f), mapSQL(x.R, f); l != x.L || r != x.R {
			cur = &SQLBin{Op: x.Op, L: l, R: r}
		}
	case *SQLNot:
		if in := mapSQL(x.E, f); in != x.E {
			cur = &SQLNot{E: in}
		}
	case *SQLLike:
		if in := mapSQL(x.E, f); in != x.E {
			cur = &SQLLike{E: in, Pattern: x.Pattern}
		}
	case *SQLIn:
		in := mapSQL(x.E, f)
		var list []SQLExpr
		for i, le := range x.List {
			if m := mapSQL(le, f); m != le {
				if list == nil {
					list = append([]SQLExpr(nil), x.List...)
				}
				list[i] = m
			}
		}
		if in != x.E || list != nil {
			if list == nil {
				list = x.List
			}
			cur = &SQLIn{E: in, List: list}
		}
	case *SQLFunc:
		var args []SQLExpr
		for i, a := range x.Args {
			if m := mapSQL(a, f); m != a {
				if args == nil {
					args = append([]SQLExpr(nil), x.Args...)
				}
				args[i] = m
			}
		}
		if args != nil {
			cur = &SQLFunc{Name: x.Name, Args: args}
		}
	}
	return f(e, cur)
}
