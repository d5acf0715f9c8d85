package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mediator"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// cityQuery is one shape over the customers schema: its city and id bound
// are parameters, pushed into crmdb's SQL.
func cityQuery(city string, minID int) string {
	return fmt.Sprintf(`WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where></cust> IN "customers",
		$c = "%s", $i >= %d CONSTRUCT <r id=$i>$w</r>`, city, minID)
}

// ticketQuery is a shape whose priority is pinned: an attribute literal,
// which unification compares, so each priority prepares its own entry.
func ticketQuery(pri, city string) string {
	return fmt.Sprintf(`WHERE <ticket pri="%s"><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
		<cust><cid>$i</cid><where>$c</where></cust> IN "customers", $c != "%s"
		CONSTRUCT <t>$s</t> ORDER-BY $s`, pri, city)
}

func answer(t testing.TB, e *Engine, q string) string {
	t.Helper()
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return xmlparse.SerializeString(res.View(), 0)
}

// TestWarmCallBindsWithoutUnfoldOrParse: a second call of a known shape
// with new predicate literals is a prepared hit — no parse, no
// unfolding — and its pushed SQL fragment, of a shape crmdb has parsed,
// is bound, not parsed; the answer is a fresh engine's.
func TestWarmCallBindsWithoutUnfoldOrParse(t *testing.T) {
	e, crm := newTestEngine(t)
	if got := answer(t, e, cityQuery("London", 0)); got != `<results><r id="1">Ada Lovelace</r></results>` {
		t.Fatalf("cold call: %s", got)
	}
	eng, db := e.PreparedStats(), crm.DB().PreparedStats()
	q := cityQuery("New York", 2)
	fresh, _ := newTestEngine(t)
	if got, want := answer(t, e, q), answer(t, fresh, q); got != want {
		t.Errorf("warm call: %s, fresh engine: %s", got, want)
	}
	eng2, db2 := e.PreparedStats(), crm.DB().PreparedStats()
	if eng2.Hits != eng.Hits+1 || eng2.Misses != eng.Misses || eng2.Entries != 1 {
		t.Errorf("engine prepared %+v -> %+v, want one more hit", eng, eng2)
	}
	if db2.Hits != db.Hits+1 || db2.Misses != db.Misses {
		t.Errorf("crmdb statements %+v -> %+v, want one more hit", db, db2)
	}
}

// TestPreparedMatchesFreshEngineConcurrently: eight goroutines run two
// shapes — one with parameters, one with a pinned literal in three
// variants — with changing literals through one engine, and every answer
// is a fresh engine's for the same text.
func TestPreparedMatchesFreshEngineConcurrently(t *testing.T) {
	var texts []string
	for _, city := range []string{"London", "Cambridge", "New York", "Nowhere"} {
		for minID := 0; minID < 4; minID++ {
			texts = append(texts, cityQuery(city, minID))
		}
		for _, pri := range []string{"high", "low", "none"} {
			texts = append(texts, ticketQuery(pri, city))
		}
	}
	want := make([]string, len(texts))
	for i, q := range texts {
		fresh, _ := newTestEngine(t)
		want[i] = answer(t, fresh, q)
	}
	e, _ := newTestEngine(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 3*len(texts); j++ {
				i := (g*7 + j) % len(texts)
				res, err := e.Query(context.Background(), texts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := xmlparse.SerializeString(res.View(), 0); got != want[i] {
					t.Errorf("%s\n got %s\nwant %s", texts[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.PreparedStats(); st.Entries != 4 {
		t.Errorf("prepared %+v, want 4 entries: one city shape, three priorities", st)
	}
}

// TestPreparedFollowsTheCatalog: a view definition added to a schema a
// prepared query reads makes its next call unfold again, and the answer
// includes the new definition's part; calls after that hit.
func TestPreparedFollowsTheCatalog(t *testing.T) {
	cat := catalog.New()
	for _, src := range [][2]string{{"a", `<a><t>one</t></a>`}, {"b", `<b><t>two</t></b>`}} {
		s, err := sources.NewXMLSource(src[0], src[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineViewQL("s", `WHERE <t>$v</t> IN "a" CONSTRUCT <x>$v</x>`); err != nil {
		t.Fatal(err)
	}
	e := New(cat, Config{})
	q := func(not string) string {
		return fmt.Sprintf(`WHERE <x>$v</x> IN "s", $v != "%s" CONSTRUCT <r>$v</r> ORDER-BY $v`, not)
	}
	step := func(not, want string, miss bool) {
		t.Helper()
		before := e.PreparedStats()
		if got := answer(t, e, q(not)); got != want {
			t.Errorf("$v != %q: %s, want %s", not, got, want)
		}
		if after := e.PreparedStats(); (after.Misses > before.Misses) != miss {
			t.Errorf("$v != %q: prepared %+v -> %+v, want miss %v", not, before, after, miss)
		}
	}
	step("x", `<results><r>one</r></results>`, true)
	step("y", `<results><r>one</r></results>`, false)
	if err := cat.DefineViewQL("s", `WHERE <t>$v</t> IN "b" CONSTRUCT <x>$v</x>`); err != nil {
		t.Fatal(err)
	}
	step("one", `<results><r>two</r></results>`, true)
	step("z", `<results><r>one</r><r>two</r></results>`, false)
}

// BenchmarkPreparedCold is a miss: scan, parse and unfold a query of the
// point-pushdown shape and store it (the cache is emptied every time).
// BenchmarkParseUnfold is the same work without the cache, what every
// call cost before; BenchmarkPreparedWarm is a hit with new literals:
// scan, look up and bind the rewrites. None of them plans or executes.
func BenchmarkPreparedCold(b *testing.B) {
	e, _ := newTestEngine(b)
	texts := benchTexts()
	sh := new(xmlql.Shape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sh.Scan(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
		call, err := e.prepare(sh)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.unfold(call, call.Query, nil); err != nil {
			b.Fatal(err)
		}
		e.prepared.clear()
	}
}

func BenchmarkParseUnfold(b *testing.B) {
	e, _ := newTestEngine(b)
	texts := benchTexts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := xmlql.Parse(texts[i%len(texts)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mediator.UnfoldSkip(e.cat, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreparedWarm(b *testing.B) {
	e, _ := newTestEngine(b)
	texts := benchTexts()
	answer(b, e, texts[0])
	sh := new(xmlql.Shape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sh.Scan(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
		call, err := e.prepare(sh)
		if err != nil || !call.hit {
			b.Fatal("not a hit", err)
		}
	}
}

// benchTexts are three texts of cityQuery's shape.
func benchTexts() []string {
	return []string{cityQuery("London", 0), cityQuery("Cambridge", 1), cityQuery("New York", 2)}
}

// renderAnswer writes q's answer as /query does, indented by 2: written
// into the buffer by the engine when stream is set, else appended from
// Values.
func renderAnswer(e *Engine, q string, stream bool) (string, error) {
	buf := xmlparse.NewBuffer()
	defer buf.Release()
	buf.StartDocument(2)
	qo := QueryOptions{}
	if stream {
		qo.Buffer = buf
	}
	res, err := e.QueryOpt(context.Background(), q, qo)
	if err != nil {
		return "", err
	}
	for _, v := range res.Values {
		buf.WriteChild(v.(*xmldm.Node))
	}
	return string(buf.EndDocument(res.View())), nil
}

// heldPrograms is the CONSTRUCT program each of e's prepared entries
// holds for its first rewrite.
func heldPrograms(e *Engine) []*algebra.Program {
	e.prepared.mu.RLock()
	defer e.prepared.mu.RUnlock()
	var progs []*algebra.Program
	for _, ps := range e.prepared.entries {
		for _, p := range ps {
			progs = append(progs, p.progs[0].Load())
		}
	}
	return progs
}

// TestStreamedShapeCompilesItsProgramOnce: a shape's streamed answers are
// written by one CONSTRUCT program, compiled at the first and held on the
// prepared entry, which eight goroutines then stream through at once with
// other literals, beside materialized answers built through it: each
// streamed answer is the materialized one's bytes, and the entry holds the
// same program throughout.
func TestStreamedShapeCompilesItsProgramOnce(t *testing.T) {
	e, _ := newTestEngine(t)
	if _, err := renderAnswer(e, cityQuery("London", 0), true); err != nil {
		t.Fatal(err)
	}
	first := heldPrograms(e)
	if len(first) != 1 || first[0] == nil {
		t.Fatalf("programs held after the first streamed call: %v, want one", first)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, city := range []string{"London", "Cambridge", "New York", "Nowhere"} {
				q := cityQuery(city, g%3)
				got, err := renderAnswer(e, q, true)
				want, err2 := renderAnswer(e, q, false)
				if err != nil || err2 != nil || got != want {
					t.Errorf("%s: streamed %q (%v), materialized %q (%v)", q, got, err, want, err2)
				}
			}
		}(g)
	}
	wg.Wait()
	if last := heldPrograms(e); len(last) != 1 || last[0] != first[0] {
		t.Errorf("programs held after every call: %v, want the first, %v", last, first[0])
	}
}

// TestMaterializedShapeCompilesItsProgramOnce: a materialized answer is
// built through its prepared entry's program, at whatever indentation the
// program was compiled (the node sink ignores it). So a shape answered
// first materialized and then streamed compiles once per indentation:
// the first materialized call compiles the entry's program, the first
// streamed call (indented by 2) one more, and every later call of either
// kind takes that one. A shape whose ORDER-BY the mediator sorts is
// written into the buffer it is given after the sort, so it compiles its
// program at the buffer's indentation (2), which a later materialized
// call keeps. Every answer is a fresh engine's materialized one.
func TestMaterializedShapeCompilesItsProgramOnce(t *testing.T) {
	type call struct {
		q      string
		stream bool
		// indent is the indentation the entry's program is compiled at
		// after the call, and compiled whether this call compiled it.
		indent   int
		compiled bool
	}
	for name, calls := range map[string][]call{
		"streamed later": {
			{cityQuery("London", 0), false, 0, true},
			{cityQuery("Cambridge", 1), false, 0, false},
			{cityQuery("New York", 0), true, 2, true},
			{cityQuery("London", 2), false, 2, false},
			{cityQuery("Cambridge", 0), true, 2, false},
			{cityQuery("Nowhere", 0), false, 2, false},
		},
		"sorted by the mediator": {
			{ticketQuery("high", "London"), true, 2, true},
			{ticketQuery("high", "Boston"), true, 2, false},
			{ticketQuery("high", "New York"), false, 2, false},
		},
	} {
		e, _ := newTestEngine(t)
		var prev *algebra.Program
		for i, c := range calls {
			got, err := renderAnswer(e, c.q, c.stream)
			fresh, _ := newTestEngine(t)
			want, err2 := renderAnswer(fresh, c.q, false)
			if err != nil || err2 != nil || got != want {
				t.Errorf("%s call %d: %q (%v), a fresh engine's materialized answer %q (%v)", name, i, got, err, want, err2)
			}
			held := heldPrograms(e)
			if len(held) != 1 {
				t.Fatalf("%s call %d: programs held %v, want one", name, i, held)
			}
			e.prepared.mu.RLock()
			var tmpl *xmlql.TmplElem
			for _, ps := range e.prepared.entries {
				tmpl = ps[0].rewrites[0].Query.Construct
			}
			e.prepared.mu.RUnlock()
			if !held[0].Serves(tmpl, c.indent) || (held[0] != prev) != c.compiled {
				t.Errorf("%s call %d (streamed %v): program %p (before %p) serves indent %d: %v, want a program compiled %v",
					name, i, c.stream, held[0], prev, c.indent, held[0].Serves(tmpl, c.indent), c.compiled)
			}
			prev = held[0]
		}
	}
}
