package qcache

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// TestKeyEqualsFieldsJoin_Property: Key is strings.Join(strings.Fields(q),
// " ") over random strings made of every rune unicode.IsSpace accepts,
// ASCII and non-ASCII words, and invalid UTF-8 (stray continuation
// bytes, truncated sequences, bytes never valid), which Fields reads as
// non-space.
func TestKeyEqualsFieldsJoin_Property(t *testing.T) {
	var spaces []string
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(r) {
			spaces = append(spaces, string(r))
		}
	}
	if len(spaces) < 20 {
		t.Fatalf("only %d space runes found", len(spaces))
	}
	pieces := append([]string{
		"a", "WHERE", "$x", "<r>", "é", "日本", "\u200b", "\ufffd",
		"\x80", "\xff", "\xe2\x80", "\xe2", "\xc2", "\xed\xa0\x80", "\xf0\x9f",
	}, spaces...)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		q := b.String()
		if got, want := Key(q), strings.Join(strings.Fields(q), " "); got != want {
			t.Fatalf("Key(%q) = %q, want %q", q, got, want)
		}
	}
}

// TestKeyAllocates: a normalized query (or one that is only trimmed) is
// its own key; any other takes one allocation.
func TestKeyAllocates(t *testing.T) {
	for _, tc := range []struct {
		q      string
		allocs float64
	}{
		{`WHERE <a>$x</a> IN "xs" CONSTRUCT <r>$x</r>`, 0},
		{"  WHERE <a>$x</a> IN \"xs\" CONSTRUCT <r>$x</r>\n", 0},
		{"WHERE <a>$x</a>\n\tIN \"xs\"  CONSTRUCT <r>$x</r>", 1},
		{"WHERE\u00a0<a>$x</a> IN \"xs\" CONSTRUCT <r>$x</r>", 1}, // a no-break space
	} {
		if got := testing.AllocsPerRun(100, func() { Key(tc.q) }); got != tc.allocs {
			t.Errorf("Key(%q): %v allocations, want %v", tc.q, got, tc.allocs)
		}
	}
}
