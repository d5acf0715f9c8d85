package algebra

import (
	"testing"

	"repro/internal/testkit"
	"repro/internal/xmldm"
)

func tup(kv ...any) Binding {
	fields := make([]xmldm.Field, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		fields = append(fields, xmldm.Field{Name: kv[i].(string), Value: kv[i+1].(xmldm.Value)})
	}
	return xmldm.NewTuple(fields...)
}

func TestMergeBindings(t *testing.T) {
	s, i := func(v string) xmldm.Value { return xmldm.String(v) }, func(v int) xmldm.Value { return xmldm.Int(v) }
	cases := []struct {
		name string
		l, r Binding
		join []string
		want string // "" means the pair does not merge
	}{
		{"disjoint", tup("a", i(1)), tup("b", i(2), "c", s("x")), nil, `{a: 1, b: 2, c: x}`},
		{"join var agrees", tup("k", i(7), "a", s("l")), tup("k", s("7"), "b", s("r")), []string{"k"}, `{k: 7, a: l, b: r}`},
		{"join var differs", tup("k", i(7)), tup("k", i(8), "b", s("r")), []string{"k"}, ""},
		{"shared non-join name agrees", tup("k", i(1), "city", s("Oslo")), tup("k", i(1), "city", s("Oslo"), "b", i(2)), []string{"k"}, `{k: 1, city: Oslo, b: 2}`},
		{"shared non-join name conflicts", tup("k", i(1), "city", s("Oslo")), tup("k", i(1), "city", s("Rome"), "b", i(2)), []string{"k"}, ""},
		{"conflict with no join vars", tup("city", s("Oslo")), tup("b", i(2), "city", s("Rome")), nil, ""},
		{"right adds nothing", tup("k", i(1), "a", s("x")), tup("a", s("x"), "k", s("1")), []string{"k"}, `{k: 1, a: x}`},
		{"right is empty", tup("k", i(1)), tup(), nil, `{k: 1}`},
		{"left is empty", tup(), tup("k", i(1)), nil, `{k: 1}`},
		{"right repeats a new name, equal", tup("a", i(1)), tup("b", i(2), "b", s("2")), nil, `{a: 1, b: 2}`},
		{"right repeats a new name, unequal", tup("a", i(1)), tup("b", i(2), "b", i(3)), nil, ""},
		{"join var missing on the right", tup("k", i(1)), tup("b", i(2)), []string{"k"}, `{k: 1, b: 2}`},
	}
	for _, c := range cases {
		leftBefore := c.l.String()
		got, ok := mergeBindings(c.l, c.r, c.join)
		switch {
		case c.want == "" && ok:
			t.Errorf("%s: merged to %s, want no merge", c.name, got)
		case c.want != "" && !ok:
			t.Errorf("%s: did not merge, want %s", c.name, c.want)
		case ok && got.String() != c.want:
			t.Errorf("%s: merged to %s, want %s", c.name, got, c.want)
		}
		if c.l.String() != leftBefore {
			t.Errorf("%s: the left binding changed to %s", c.name, c.l)
		}
	}

	// When r adds no name the result is l itself, not a copy.
	l := tup("k", xmldm.Int(1), "a", xmldm.String("x"))
	if got, _ := mergeBindings(l, tup("a", xmldm.String("x")), nil); got != l {
		t.Error("a merge that adds nothing should return the left binding itself")
	}
	// The merged tuple must not share the left one's backing array: two
	// merges from one left binding would overwrite each other.
	m1, _ := mergeBindings(l, tup("b", xmldm.Int(1)), nil)
	m2, _ := mergeBindings(l, tup("b", xmldm.Int(2)), nil)
	if v, _ := m1.Get("b"); v != xmldm.Int(1) {
		t.Errorf("first merge now reads b = %v after a second merge (%s)", v, m2)
	}
}

func TestMergeBindingsAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	l := tup("k", xmldm.Int(1), "a", xmldm.String("x"), "b", xmldm.String("y"), "c", xmldm.String("z"))
	r := tup("k", xmldm.Int(1), "d", xmldm.String("p"), "e", xmldm.String("q"), "f", xmldm.String("s"))
	sub := tup("k", xmldm.Int(1), "b", xmldm.String("y"))
	join := []string{"k"}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := mergeBindings(l, r, join); !ok {
			t.Fatal("no merge")
		}
	}); n > 2 {
		t.Errorf("merging a pair allocates %v times, want at most 2 (fields and tuple)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := mergeBindings(l, sub, join); !ok {
			t.Fatal("no merge")
		}
	}); n != 0 {
		t.Errorf("merging a binding that adds nothing allocates %v times, want 0", n)
	}
}
