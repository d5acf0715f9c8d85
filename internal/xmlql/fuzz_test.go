package xmlql

import (
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds is the parser fuzz corpus, shared by FuzzParse and
// FuzzPrepare.
var fuzzSeeds = []string{
	`WHERE <book year=$y><title>$t</title></book> IN "bib", $y > 1995 CONSTRUCT <r>$t</r>`,
	`ON-UNAVAILABLE PARTIAL WHERE <//a.b>$v</> IN "s" CONSTRUCT <r>$v</r> ORDER-BY $v DESC`,
	`WHERE <(a|b)>$x</> ELEMENT_AS $e IN $src CONSTRUCT <$t k=$x>{ count({WHERE <c>$y</c> IN $e CONSTRUCT <d/>}) }</>`,
	`WHERE <a>"text"</a> IN s, contains($x, "%") CONSTRUCT <r/>`,
	"WHERE <a>$x</a IN \"s\" CONSTRUCT", // malformed
	"",
	`WHERE <c><w>$w</w><p>$p</p></c> IN "customers", $p = 'it\'s', -5 <= $w, $w < 7.5 + 1 CONSTRUCT <r n="x">{ $w != "y" }</r>`,
}

// FuzzParse is the native fuzz target for the query parser: any input
// must parse or error, never panic, and successful parses must
// round-trip through the canonical printer. Run with:
//
//	go test -fuzz=FuzzParse ./internal/xmlql
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("nil query with nil error")
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v\ninput: %q\ncanon: %q", err, src, canon)
		}
		if q2.String() != canon {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", canon, q2.String())
		}
	})
}

// FuzzPrepare holds a prepared query to Parse: Scan and Prepare fail
// exactly where Parse does; binding the prepared query with its own
// literals prints what Parse makes of the text; and the text with every
// parameter respelled has the same shape, is served by the prepared
// query, and binds to what Parse makes of it. Run with:
//
//	go test -fuzz=FuzzPrepare ./internal/xmlql
func FuzzPrepare(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, perr := Parse(src)
		var s Shape
		err := s.Scan(src)
		var p *Prepared
		if err == nil {
			p, err = s.Prepare()
		}
		if (err == nil) != (perr == nil) {
			t.Fatalf("Prepare error %v, Parse error %v\ninput: %q", err, perr, src)
		}
		if err != nil {
			return
		}
		if got, want := bind(p, s.Lits).String(), q.String(); got != want {
			t.Fatalf("bound with its own literals:\n%s\nParse:\n%s", got, want)
		}

		alt := respellParams(src, &s, p)
		altQ, err := Parse(alt)
		if err != nil {
			t.Fatalf("respelled text does not parse: %v\n%q", err, alt)
		}
		var as Shape
		if err := as.Scan(alt); err != nil {
			t.Fatal(err)
		}
		if string(as.Key) != string(s.Key) || !p.Serves(as.Lits) {
			t.Fatalf("respelling parameters changed the shape:\n%q\n%q", src, alt)
		}
		if got, want := bind(p, as.Lits).String(), altQ.String(); got != want {
			t.Fatalf("bound to %q:\n%s\nParse:\n%s", alt, got, want)
		}
	})
}

// respellParams rewrites src with every parameter literal replaced: a
// string by "p<i>", a number by 7<i>.
func respellParams(src string, s *Shape, p *Prepared) string {
	var sb strings.Builder
	last, lit := 0, 0
	for _, tk := range s.toks {
		if tk.kind != tokString && tk.kind != tokNumber {
			continue
		}
		if p.Params[lit] != nil {
			sb.WriteString(src[last:tk.pos])
			if tk.kind == tokNumber {
				sb.WriteString("7" + strconv.Itoa(lit))
			} else {
				sb.WriteString(`"p` + strconv.Itoa(lit) + `"`)
			}
			last = litEnd(src, tk.pos)
		}
		lit++
	}
	sb.WriteString(src[last:])
	return sb.String()
}

// litEnd is the offset just past the string or number literal at pos.
func litEnd(src string, pos int) int {
	i := pos
	if q := src[i]; q == '"' || q == '\'' {
		for i++; src[i] != q; i++ {
			if src[i] == '\\' {
				i++
			}
		}
		return i + 1
	}
	if src[i] == '-' {
		i++
	}
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
		for i++; i < len(src) && isDigit(src[i]); i++ {
		}
	}
	return i
}
