package xmlql

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics_Property throws random byte soup and mutated
// valid queries at the parser: it must always return (query, nil) or
// (nil, error), never panic — the front end feeds it raw network input.
func TestParseNeverPanics_Property(t *testing.T) {
	pieces := []string{
		"WHERE", "CONSTRUCT", "IN", "ORDER-BY", "ELEMENT_AS", "CONTENT_AS",
		"<", ">", "</", "/>", "//", "$x", "$", "\"lit\"", "'q'", "{", "}",
		"(", ")", ",", "=", "!=", "<=", ">=", "+", "-", "*", "/", "a", "b",
		"count", "TRUE", "FALSE", "1", "2.5", "#c\n", "ON-UNAVAILABLE",
		"FAIL", "PARTIAL", "\\", "\x00", "é",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				sb.WriteByte(' ')
			}
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %q: %v", sb.String(), r)
			}
		}()
		q, err := Parse(sb.String())
		if err == nil && q == nil {
			t.Logf("nil query with nil error for %q", sb.String())
			return false
		}
		if err == nil {
			// Whatever parsed must print and re-parse.
			if _, err2 := Parse(q.String()); err2 != nil {
				t.Logf("canonical form of %q failed to re-parse: %v", sb.String(), err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseDeepNesting checks the parser handles deeply nested patterns
// and templates without stack trouble at realistic depths.
func TestParseDeepNesting(t *testing.T) {
	depth := 200
	var open, close strings.Builder
	for i := 0; i < depth; i++ {
		open.WriteString("<a>")
		close.WriteString("</a>")
	}
	src := "WHERE " + open.String() + "$x" + close.String() + ` IN "s" CONSTRUCT <r>$x</r>`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Count the nesting back.
	d := 0
	pat := q.Where[0].(*PatternCond).Pattern
	for pat != nil {
		d++
		if len(pat.Content) == 1 {
			if cp, ok := pat.Content[0].(*ChildPattern); ok {
				pat = cp.Elem
				continue
			}
		}
		break
	}
	if d != depth {
		t.Errorf("depth = %d, want %d", d, depth)
	}
}

// nestingShapes are the ways a query nests: each body opens one level
// per unit and never closes it.
var nestingShapes = []struct{ name, head, unit string }{
	{"paren", "WHERE ", "("},
	{"call", "WHERE ", "not("},
	{"sum", "WHERE ", "1 + ("},
	{"pattern", "WHERE ", "<a>"},
	{"template", `WHERE <a>$x</a> IN "s" CONSTRUCT `, "<a>"},
	{"query", `WHERE <a>$x</a> IN "s" CONSTRUCT `, `<r>WHERE <a>$x</a> IN "s" CONSTRUCT `},
}

// tooBig reports whether err is one of the bounds a query text fails.
func tooBig(err error) bool {
	return errors.Is(err, ErrTooDeep) || errors.Is(err, ErrTooLong)
}

// nestedBody is head followed by as many units as fit in size bytes.
func nestedBody(head, unit string, size int) string {
	return head + strings.Repeat(unit, (size-len(head))/len(unit))
}

// allocatedBytes is what f allocates, as the runtime counts it.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseBoundsNesting: a body of every nesting shape just under the
// 1 MB a query body may hold fails with ErrTooDeep or ErrTooLong instead
// of recursing once per level, and what parsing allocates grows with the
// body's length alone: twice the bytes allocate under 2.5 times as much.
// Every body allocates under 4 MB: the lexer stops past maxTokens tokens,
// and the parser past maxDepth levels. A query nested maxDepth levels
// still parses.
func TestParseBoundsNesting(t *testing.T) {
	const limit = 1<<20 - 1
	for _, sh := range nestingShapes {
		half, whole := nestedBody(sh.head, sh.unit, limit/2), nestedBody(sh.head, sh.unit, limit)
		var err error
		n := allocatedBytes(func() { Parse(half) })
		n2 := allocatedBytes(func() { _, err = Parse(whole) })
		if !tooBig(err) {
			t.Errorf("%s: %d bytes parse to %v, want ErrTooDeep or ErrTooLong", sh.name, len(whole), err)
		}
		if n2*2 >= n*5 {
			t.Errorf("%s: %d bytes allocate %d, %d bytes %d: more than 2.5 times as much", sh.name, len(half), n, len(whole), n2)
		}
		if n2 >= 4<<20 {
			t.Errorf("%s: %d bytes allocate %d, want under 4 MB: the lexer stops past maxTokens tokens, the parser past maxDepth levels", sh.name, len(whole), n2)
		}
	}
	deepest := "WHERE " + strings.Repeat("(", maxDepth-1) + "$x = 1" + strings.Repeat(")", maxDepth-1) + ` CONSTRUCT <r/>`
	if _, err := Parse(deepest); err != nil {
		t.Errorf("%d levels: %v", maxDepth, err)
	}
	if _, err := Parse("WHERE " + strings.Repeat("(", maxDepth) + "$x = 1" + strings.Repeat(")", maxDepth) + ` CONSTRUCT <r/>`); !errors.Is(err, ErrTooDeep) {
		t.Errorf("%d levels: %v, want ErrTooDeep", maxDepth+1, err)
	}
}

// TestShapeScanIsLinear: Scan only lexes, so what it allocates for the
// deepest bodies also grows with their length alone, and every body fails
// with ErrTooDeep or ErrTooLong under 4 MB.
func TestShapeScanIsLinear(t *testing.T) {
	const limit = 1<<20 - 1
	for _, sh := range nestingShapes {
		half, whole := nestedBody(sh.head, sh.unit, limit/2), nestedBody(sh.head, sh.unit, limit)
		var err error
		n := allocatedBytes(func() { new(Shape).Scan(half) })
		n2 := allocatedBytes(func() { err = new(Shape).Scan(whole) })
		if n2*2 >= n*5 {
			t.Errorf("%s: %d bytes allocate %d, %d bytes %d: more than 2.5 times as much", sh.name, len(half), n, len(whole), n2)
		}
		if n2 >= 4<<20 || !tooBig(err) {
			t.Errorf("%s: %d bytes allocate %d and scan to %v, want under 4 MB and ErrTooDeep or ErrTooLong", sh.name, len(whole), n2, err)
		}
	}
}

// TestHugeShapeIsNotPooled: a Shape that lexed a huge text is not reused,
// so its token slice is not held for every later query; one that lexed
// an ordinary query is.
func TestHugeShapeIsNotPooled(t *testing.T) {
	var sh Shape
	if err := sh.Scan(`WHERE <a>$x</a> IN "s", $x = "y" CONSTRUCT <r>$x</r>`); err != nil || !sh.Poolable() {
		t.Fatalf("a small query: %v, poolable %v", err, sh.Poolable())
	}
	sh.Scan(nestedBody("WHERE ", "<a>", 1<<20-1))
	if sh.Poolable() {
		t.Errorf("a 1 MB body of patterns: %d tokens held, and poolable", cap(sh.toks))
	}
}
