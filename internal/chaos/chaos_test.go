package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// stubSource answers every fetch with a four-child document.
type stubSource struct{ name string }

func (s stubSource) Name() string                       { return s.name }
func (s stubSource) Capabilities() catalog.Capabilities { return catalog.Capabilities{} }
func (s stubSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	b := xmldm.NewBuilder()
	return b.Elem(s.name,
		b.Elem("row", "1"), b.Elem("row", "2"), b.Elem("row", "3"), b.Elem("row", "4"),
	), catalog.Cost{RowsReturned: 4}, nil
}

func fetch(t *testing.T, src catalog.Source) (*xmldm.Node, error) {
	t.Helper()
	doc, _, err := src.Fetch(context.Background(), catalog.Request{})
	return doc, err
}

func TestScriptAndFail(t *testing.T) {
	s := Fail(2)
	want := []Kind{Unavailable, Unavailable, Pass, Pass}
	for call, k := range want {
		if got := s.Fault(call).Kind; got != k {
			t.Errorf("call %d: kind = %v, want %v", call, got, k)
		}
	}
	// Then applies after the scripted prefix.
	s2 := Script{Faults: []Fault{{Kind: Garbage}}, Then: Fault{Kind: Hang}}
	if s2.Fault(0).Kind != Garbage || s2.Fault(1).Kind != Hang || s2.Fault(99).Kind != Hang {
		t.Error("Script Then not applied")
	}
}

func TestFlapCycle(t *testing.T) {
	f := Flap{Up: 2, Down: 3}
	want := []Kind{Pass, Pass, Unavailable, Unavailable, Unavailable, Pass, Pass, Unavailable}
	for call, k := range want {
		if got := f.Fault(call).Kind; got != k {
			t.Errorf("call %d: kind = %v, want %v", call, got, k)
		}
	}
	// Offset shifts the phase; a zero period passes everything.
	if (Flap{Up: 2, Down: 3, Offset: 2}).Fault(0).Kind != Unavailable {
		t.Error("Offset ignored")
	}
	if (Flap{}).Fault(5).Kind != Pass {
		t.Error("zero Flap should pass")
	}
}

// TestMixDeterministic: the fault for a call index is a pure function of
// (seed, call) — independent of evaluation order — and differing seeds
// produce differing schedules.
func TestMixDeterministic(t *testing.T) {
	m := Mix{Seed: 42, PUnavailable: 0.2, PMalformed: 0.1, PGarbage: 0.05, PHang: 0.05, MaxLatency: 10 * time.Millisecond}
	const n = 500
	first := make([]Fault, n)
	for i := 0; i < n; i++ {
		first[i] = m.Fault(i)
	}
	// Replay in reverse order: same decisions.
	for i := n - 1; i >= 0; i-- {
		if got := m.Fault(i); got != first[i] {
			t.Fatalf("call %d: replay = %+v, want %+v", i, got, first[i])
		}
	}
	// All kinds should appear at these rates over 500 calls.
	seen := map[Kind]int{}
	for _, f := range first {
		seen[f.Kind]++
	}
	for _, k := range []Kind{Unavailable, Malformed, Garbage, Hang, Slow} {
		if seen[k] == 0 {
			t.Errorf("kind %v never injected in %d calls", k, n)
		}
	}
	// A different seed diverges.
	m2 := Mix{Seed: 43, PUnavailable: 0.2, PMalformed: 0.1, PGarbage: 0.05, PHang: 0.05, MaxLatency: 10 * time.Millisecond}
	same := 0
	for i := 0; i < n; i++ {
		if m2.Fault(i) == first[i] {
			same++
		}
	}
	if same == n {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}

func TestSourceUnavailableAndGarbage(t *testing.T) {
	src := Wrap(stubSource{"s"}, Script{Faults: []Fault{{Kind: Unavailable}, {Kind: Garbage}}})
	if _, err := fetch(t, src); !errors.Is(err, sources.ErrUnavailable) || !sources.Transient(err) {
		t.Errorf("unavailable fault: err = %v", err)
	}
	if _, err := fetch(t, src); err == nil || sources.Transient(err) {
		t.Errorf("garbage fault should be a non-transient error, got %v", err)
	}
	if doc, err := fetch(t, src); err != nil || doc == nil {
		t.Errorf("past the script: doc=%v err=%v", doc, err)
	}
	calls, injected := src.Stats()
	if calls != 3 || injected[Unavailable] != 1 || injected[Garbage] != 1 || injected[Pass] != 1 {
		t.Errorf("stats = %d %v", calls, injected)
	}
}

func TestSourceMalformedTruncates(t *testing.T) {
	src := Wrap(stubSource{"s"}, Script{Then: Fault{Kind: Malformed}})
	doc, _, err := src.Fetch(context.Background(), catalog.Request{})
	if !errors.Is(err, sources.ErrMalformed) || !sources.Transient(err) {
		t.Fatalf("err = %v", err)
	}
	if doc == nil || len(doc.Children) != 2 {
		t.Fatalf("truncated doc = %+v (want half of 4 children)", doc)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err text = %q", err)
	}
}

// TestTruncatedDocumentIsWalked: a truncated transfer of an indexed
// source is another document, so the source's index does not answer for
// it, and a leaf handed it walks it — finding what matching it finds.
func TestTruncatedDocumentIsWalked(t *testing.T) {
	src, err := sources.NewXMLSource("tickets", `<tickets><ticket pri="high"><s>a</s></ticket><ticket pri="high"><s>b</s></ticket>`+
		`<ticket pri="low"><s>c</s></ticket><ticket pri="high"><s>d</s></ticket></tickets>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := src.Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	cut := truncateDoc(doc)
	if src.IndexFor(doc) == nil || src.IndexFor(cut) != nil {
		t.Fatalf("IndexFor(served)=%v IndexFor(truncated)=%v: the index must answer for exactly the served document",
			src.IndexFor(doc) != nil, src.IndexFor(cut) != nil)
	}
	pat := xmlql.MustParse(`WHERE <ticket pri="high"><s>$s</s></ticket> IN "tickets" CONSTRUCT <r/>`).Where[0].(*xmlql.PatternCond).Pattern
	leaf := &algebra.Match{Input: &algebra.Singleton{}, Pattern: pat, Index: src.IndexFor,
		Roots: func(*algebra.Context) ([]xmldm.Value, error) { return []xmldm.Value{cut}, nil }}
	op, node := algebra.Instrument(leaf)
	got, err := algebra.Drain(&algebra.Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	node.Finalize()
	want, err := algebra.MatchPattern(&algebra.Context{}, cut, pat, xmldm.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 2 {
		t.Errorf("leaf over the truncated document = %v, want %v", got, want)
	}
	if node.Detail != "<ticket> walk" {
		t.Errorf("leaf detail = %q, want the walk", node.Detail)
	}
}

func TestSourceHangRespectsContext(t *testing.T) {
	src := Wrap(stubSource{"s"}, Script{Then: Fault{Kind: Hang}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := src.Fetch(ctx, catalog.Request{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("hang outlived its context")
	}
}

func TestSourceSlowUsesInjectedSleeper(t *testing.T) {
	var slept []time.Duration
	src := Wrap(stubSource{"s"}, Script{Then: Fault{Kind: Slow, Latency: 3 * time.Second}}).
		WithSleep(func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		})
	start := time.Now()
	if _, err := fetch(t, src); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("injected sleeper still cost wall-clock time")
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Errorf("slept = %v", slept)
	}
	// A sleeper that reports cancellation aborts the fetch.
	src2 := Wrap(stubSource{"s"}, Script{Then: Fault{Kind: Slow, Latency: time.Second}}).
		WithSleep(func(ctx context.Context, d time.Duration) error { return context.Canceled })
	if _, err := fetch(t, src2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestSourcePassThroughAndIdentity(t *testing.T) {
	inner := stubSource{"s"}
	src := Wrap(inner, nil)
	if src.Name() != "s" || src.Inner() != catalog.Source(inner) {
		t.Error("identity not forwarded")
	}
	doc, err := fetch(t, src)
	if err != nil || len(doc.Children) != 4 {
		t.Errorf("pass-through doc = %v, %v", doc, err)
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock()
	epoch := c.Now()
	if epoch != time.Unix(1_000_000_000, 0) {
		t.Fatalf("epoch = %v", epoch)
	}
	if err := c.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Minute)
	if got := c.Now().Sub(epoch); got != time.Hour+time.Minute {
		t.Errorf("advanced %v", got)
	}
	if n, d := c.Slept(); n != 1 || d != time.Hour {
		t.Errorf("Slept = %d, %v", n, d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sleep err = %v", err)
	}
	if got := c.Now().Sub(epoch); got != time.Hour+time.Minute {
		t.Errorf("cancelled sleep advanced time to +%v", got)
	}
	// Two clocks observe identical timestamps — the determinism anchor.
	if !NewFakeClock().Now().Equal(time.Unix(1_000_000_000, 0)) {
		t.Error("fresh clocks disagree on the epoch")
	}
}

// TestFakeClockDeadline: a WithTimeout deadline passes in virtual time —
// a sleep that reaches it stops there and returns the context's error,
// an Advance past it ends it, a cancelled one never fires — so a hung or
// slow fault sleeping on the same clock is bounded without wall time.
func TestFakeClockDeadline(t *testing.T) {
	c := NewFakeClock()
	epoch := c.Now()
	ctx, cancel := c.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Sleep(ctx, 5*time.Millisecond); err != nil {
		t.Fatalf("sleep before the deadline: %v", err)
	}
	if err := c.Sleep(ctx, time.Hour); err == nil || !errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		t.Fatalf("sleep past the deadline: err %v, cause %v", err, context.Cause(ctx))
	}
	if got := c.Now().Sub(epoch); got != 20*time.Millisecond {
		t.Errorf("sleep past the deadline advanced to +%v, want +20ms", got)
	}

	advanced, cancelA := c.WithTimeout(context.Background(), time.Second)
	defer cancelA()
	stopped, cancelS := c.WithTimeout(context.Background(), time.Second)
	cancelS()
	c.Advance(time.Second)
	if advanced.Err() == nil {
		t.Error("Advance past a deadline left its context running")
	}
	if !errors.Is(context.Cause(stopped), context.Canceled) {
		t.Errorf("a cancelled deadline fired: cause %v", context.Cause(stopped))
	}

	src := Wrap(stubSource{"s"}, Script{Then: Fault{Kind: Hang}}).WithSleep(c.Sleep)
	hung, cancelH := c.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelH()
	before := c.Now()
	start := time.Now()
	if _, _, err := src.Fetch(hung, catalog.Request{}); err == nil {
		t.Fatal("a hang under a virtual deadline answered")
	}
	if got := c.Now().Sub(before); got != 20*time.Millisecond {
		t.Errorf("hang ended at +%v of virtual time, want +20ms", got)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("a hang under a virtual deadline cost wall-clock time")
	}
}

// TestWrappedSchedulePerCallCounter: interleaved requests share one call
// counter, so the total injection counts match the schedule regardless
// of request identity.
func TestWrappedSchedulePerCallCounter(t *testing.T) {
	src := Wrap(stubSource{"s"}, Flap{Up: 1, Down: 1})
	var ok, bad int
	for i := 0; i < 10; i++ {
		_, _, err := src.Fetch(context.Background(), catalog.Request{Native: fmt.Sprintf("q%d", i%3)})
		if err != nil {
			bad++
		} else {
			ok++
		}
	}
	if ok != 5 || bad != 5 {
		t.Errorf("ok=%d bad=%d, want 5/5 from a 1-up-1-down flap", ok, bad)
	}
}

// TestRowFaultsShareTheSchedule: a relational source under chaos answers
// in rows on the same call counter as documents; a Malformed row answer
// is the first half of the rows with ErrMalformed; over a source that
// does not answer in rows the wrapper does not claim to.
func TestRowFaultsShareTheSchedule(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY)`)
	db.MustExec(`INSERT INTO customers VALUES (1), (2), (3), (4), (5)`)
	src := Wrap(sources.NewRelationalSource("crmdb", db), Script{Faults: []Fault{{Kind: Malformed}, {Kind: Unavailable}}})
	req := catalog.Request{Native: `SELECT id FROM customers`}
	res, _, err := src.FetchRows(context.Background(), req)
	if !errors.Is(err, sources.ErrMalformed) || res == nil || len(res.Rows) != 2 || cap(res.Rows) != 2 {
		t.Fatalf("malformed row answer = %v, %v", res, err)
	}
	if _, err := fetch(t, src); !errors.Is(err, sources.ErrUnavailable) {
		t.Errorf("second call, a document: err = %v, want the scheduled unavailability", err)
	}
	if res, _, err := src.FetchRows(context.Background(), req); err != nil || len(res.Rows) != 5 {
		t.Errorf("past the script: %v, %v", res, err)
	}
	if calls, injected := src.Stats(); calls != 3 || injected[Malformed] != 1 || injected[Unavailable] != 1 {
		t.Errorf("stats = %d %v", calls, injected)
	}
	if _, ok := catalog.RowsOf(Wrap(stubSource{"s"}, nil)); ok {
		t.Error("chaos over a document source claims to answer in rows")
	}
}

// TestMalformedViewKeepsItsColumnMap: a relational source answers a
// fragment of bare columns with the table's own rows and a column map; a
// Malformed cut of that answer keeps the map, so its cells read through
// Pos, and its export, are the fragment's columns of the first half of
// the rows, not the table's columns in the table's order.
func TestMalformedViewKeepsItsColumnMap(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'Alan', 'Wilmslow'), (3, 'Grace', 'Arlington'), (4, 'Edsger', 'Austin')`)
	src := Wrap(sources.NewRelationalSource("crmdb", db), Script{Faults: []Fault{{Kind: Malformed}}})
	req := catalog.Request{Native: `SELECT city, id FROM customers`}
	res, _, err := src.FetchRows(context.Background(), req)
	if !errors.Is(err, sources.ErrMalformed) || res == nil || len(res.Rows) != 2 {
		t.Fatalf("malformed row answer = %v, %v", res, err)
	}
	if len(res.Rows[0]) != 3 {
		t.Fatalf("the answer is not the table's own rows: %v", res.Rows)
	}
	var cells []string
	for _, row := range res.Rows {
		for i, col := range res.Columns {
			cells = append(cells, col+"="+xmldm.Stringify(row[res.Pos(i)]))
		}
	}
	if got, want := strings.Join(cells, " "), "city=London id=1 city=Wilmslow id=2"; got != want {
		t.Errorf("cells read through the column map: %s, want %s", got, want)
	}
	const export = `<crmdb><row><city>London</city><id>1</id></row><row><city>Wilmslow</city><id>2</id></row></crmdb>`
	if got := sources.RowsDocument("crmdb", catalog.Request{}, res).String(); got != export {
		t.Errorf("export of the cut answer:\n%s\nwant\n%s", got, export)
	}
}
