package xmlql

import (
	"testing"
)

// bind is the prepared query with the parameter values of lits, which
// it must serve.
func bind(p *Prepared, lits []Lit) *Query {
	from, to := p.Rebinding(lits)
	return Rebind(p.Query, from, to)
}

func scan(t *testing.T, src string) *Shape {
	t.Helper()
	var s Shape
	if err := s.Scan(src); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestShapeKey: whitespace and comments are not part of a shape, nor are
// literal values; literal types, names and structure are.
func TestShapeKey(t *testing.T) {
	base := `WHERE <a k="v">$x</a> IN "s", $x = "one" CONSTRUCT <r>$x</r>`
	same := []string{
		"WHERE <a k=\"v\">$x</a>\n\tIN \"s\", # c\n $x = 'two' CONSTRUCT <r>$x</r>",
		`WHERE <a k="w">$x</a> IN "t", $x = "" CONSTRUCT <r>$x</r>`,
	}
	different := []string{
		`WHERE <a k="v">$x</a> IN "s", $x = 1 CONSTRUCT <r>$x</r>`,
		`WHERE <a k="v">$y</a> IN "s", $y = "one" CONSTRUCT <r>$y</r>`,
		`WHERE <a k="v">$x</a> IN "s", $x != "one" CONSTRUCT <r>$x</r>`,
		`WHERE <b k="v">$x</b> IN "s", $x = "one" CONSTRUCT <r>$x</r>`,
	}
	key := string(scan(t, base).Key)
	for _, s := range same {
		if string(scan(t, s).Key) != key {
			t.Errorf("%q: shape differs from %q", s, base)
		}
	}
	for _, s := range different {
		if string(scan(t, s).Key) == key {
			t.Errorf("%q: same shape as %q", s, base)
		}
	}
}

// TestPrepareParams: exactly the direct operands of comparisons are
// parameters; every literal that unfolding or compilation reads is
// pinned, and a text that differs in one is not served.
func TestPrepareParams(t *testing.T) {
	src := `WHERE <a k="attr"><t>"text"</t><v>$x</v></a> IN "src",
		$x = "eq", 5 < $x, $x + 2 >= 3, contains($x, "needle"), ($x != -4)
		CONSTRUCT <r n="tmpl">"text2"</r>`
	s := scan(t, src)
	p, err := s.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"attr": false, "text": false, "src": false, "eq": true, "5": true,
		"2": false, "3": true, "needle": false, "-4": true, "tmpl": false, "text2": false}
	if len(s.Lits) != len(want) {
		t.Fatalf("%d literals, want %d: %+v", len(s.Lits), len(want), s.Lits)
	}
	for i, l := range s.Lits {
		if got := p.Params[i] != nil; got != want[l.Text] {
			t.Errorf("literal %q: parameter %v, want %v", l.Text, got, want[l.Text])
		}
	}
	for i, l := range s.Lits {
		other := append([]Lit(nil), s.Lits...)
		other[i].Text = l.Text + "x"
		if got := p.Serves(other); got != want[l.Text] {
			t.Errorf("changing %q: served %v, want %v", l.Text, got, want[l.Text])
		}
	}
}

// TestRebindSharesWhatItDoesNotChange: Rebind copies only the path to a
// replaced literal and leaves the prepared query as it was.
func TestRebindSharesWhatItDoesNotChange(t *testing.T) {
	src := `WHERE <a>$x</a> IN "s", $x = "one", $x != "two" CONSTRUCT <r>{ count({ WHERE <b>$y</b> IN "s", $y = "three" CONSTRUCT <c/> }) }</r>`
	s := scan(t, src)
	p, err := s.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	before := p.Query.String()
	lits := append([]Lit(nil), s.Lits...)
	lits[1].Text, lits[4].Text = "ONE", "THREE"
	q := bind(p, lits)
	if p.Query.String() != before {
		t.Fatal("binding modified the prepared query")
	}
	want := `WHERE <a>$x</a> IN "s", $x = "ONE", $x != "two" CONSTRUCT <r>{ count({ WHERE <b>$y</b> IN "s", $y = "THREE" CONSTRUCT <c/> }) }</r>`
	if q.String() != MustParse(want).String() {
		t.Errorf("bound:\n%s\nwant:\n%s", q, MustParse(want))
	}
	if q.Where[0] != p.Query.Where[0] || q.Where[2] != p.Query.Where[2] {
		t.Error("unchanged conditions were copied")
	}
	if q2 := bind(p, s.Lits); q2 != p.Query {
		t.Error("binding the prepared literals copied the query")
	}
}
