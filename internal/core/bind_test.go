package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// newBindEngine is newTestEngine's federation at a size a bind join
// takes: 100 customers behind the "customers" schema, and a tickets feed
// with one high-priority ticket for each of custs. wrap, if set, wraps the
// relational source before it is registered. The engine is configured
// with cfg, its metrics going to a fresh registry unless cfg names one.
func newBindEngine(t testing.TB, custs []string, wrap func(catalog.Source) catalog.Source, cfg Config) (*Engine, *obs.Registry) {
	t.Helper()
	crm := rdb.NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	for i := 0; i < 100; i++ {
		if err := crm.Insert("customers", rdb.Row{xmldm.Int(int64(i)), xmldm.String(fmt.Sprintf("N%d", i)), xmldm.String("C")}); err != nil {
			t.Fatal(err)
		}
	}
	var crmSrc catalog.Source = sources.NewRelationalSource("crmdb", crm)
	if wrap != nil {
		crmSrc = wrap(crmSrc)
	}
	var sb strings.Builder
	sb.WriteString(`<tickets><ticket pri="low"><cust>50</cust><subject>ignored</subject></ticket>`)
	for k, c := range custs {
		fmt.Fprintf(&sb, `<ticket pri="high"><cust>%s</cust><subject>S%d</subject></ticket>`, c, k)
	}
	sb.WriteString(`</tickets>`)
	tickets, err := sources.NewXMLSource("tickets", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, src := range []catalog.Source{crmSrc, tickets} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineViewQL("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return New(cat, cfg), cfg.Metrics
}

// bindJoinQL joins the high-priority tickets to their customers; the
// literal makes the tickets the selective side, so they are read first
// and the customers are the join's right side.
const bindJoinQL = `
	WHERE <ticket pri="high"><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
	      <cust><cid>$i</cid><who>$w</who></cust> IN "customers"
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`

// TestExplainGoldenBindJoin: the EXPLAIN tree of a bound join says what
// was decided and what it cost — keys shipped over rows planned on the
// join, the held left rows in its peak, the statement with the key list
// elided on the leaf, and three rows, not a hundred, on the crmdb fetch —
// and says it deterministically. The slow log carries the same text, so
// no key list reaches a log line.
func TestExplainGoldenBindJoin(t *testing.T) {
	slow := NewSlowLog(4, 0)
	e, reg := newBindEngine(t, []string{"7", "007", "12", "3", "999"}, nil, Config{Parallelism: 1, Slow: slow})
	res, err := e.Query(context.Background(), bindJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=4 in=4 time=?ms
├─ HashJoin [on $i=$_uN_i bind=5/100] out=4 in=8 time=?ms peak=8
│  ├─ Match [fetch tickets <ticket> index ticket[@pri='high']] out=5 in=1 time=?ms peak=4
│  │  └─ Singleton out=1 time=?ms
│  └─ FuncScan [pushdown crmdb: SELECT city, id, name FROM customers WHERE id IN (…5 keys)] out=3 time=?ms
├─ Fetch [crmdb fetches=1 bytes=144] out=3 time=?ms
└─ Fetch [tickets fetches=1 bytes=456] out=19 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	if entries := slow.Entries(); len(entries) != 1 || entries[0].Plan != res.Explain.Render() || strings.Contains(entries[0].Plan, "'007'") {
		t.Errorf("slow log = %+v", entries)
	}
	if n := reg.Counter("nimble_bind_join_total", "outcome", "bound").Value(); n != 1 {
		t.Errorf("nimble_bind_join_total{outcome=bound} = %d, want 1", n)
	}

	// Past the cap — a quarter of the rows — the same plan fetches the
	// table whole and says so.
	var many []string
	for i := 0; i < 26; i++ {
		many = append(many, fmt.Sprint(i))
	}
	e, reg = newBindEngine(t, many, nil, Config{Parallelism: 1})
	res, err = e.Query(context.Background(), bindJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	got = scrubTimes(res.Explain.Render())
	for _, line := range []string{
		"HashJoin [on $i=$_uN_i bind=fallback] out=26 in=126 time=?ms peak=126",
		"FuncScan [pushdown crmdb: SELECT city, id, name FROM customers] out=100 time=?ms",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("fallback explain tree lacks %q:\n%s", line, got)
		}
	}
	if n := reg.Counter("nimble_bind_join_total", "outcome", "fallback").Value(); n != 1 {
		t.Errorf("nimble_bind_join_total{outcome=fallback} = %d, want 1", n)
	}
}

// TestBindJoinPartialAnswerIsSound: with crmdb failing exactly the keyed
// fetch — the source answers before and after — a query under
// PolicyPartial returns a flagged subset of the fault-free answer, the
// failure is counted once where failures are counted, and the join's
// right side, which never opened, is not closed.
func TestBindJoinPartialAnswerIsSound(t *testing.T) {
	custs := []string{"7", "12", "3"}
	clean, _ := newBindEngine(t, custs, nil, Config{})
	full, err := clean.Query(context.Background(), bindJoinQL)
	if err != nil || len(full.Values) != 3 || !full.Completeness.Complete {
		t.Fatalf("fault-free answer: %v, %d rows", err, len(full.Values))
	}

	var faulty *chaos.Source
	reg := obs.NewRegistry()
	breakers := exec.NewBreakerSet(1, time.Nanosecond, nil, reg) // one failure opens it; the next fetch is its probe
	e, _ := newBindEngine(t, custs, func(s catalog.Source) catalog.Source {
		faulty = chaos.Wrap(s, chaos.Script{Faults: []chaos.Fault{{}, {Kind: chaos.Unavailable}}})
		return faulty
	}, Config{Metrics: reg, Breakers: breakers})

	// Call 0: crmdb is up for an ordinary fetch.
	if res, err := e.Query(context.Background(), `WHERE <customer><id>$i</id></customer> IN "crmdb", $i < 2 CONSTRUCT <r>$i</r>`); err != nil || len(res.Values) != 2 {
		t.Fatalf("warm-up: %v", err)
	}
	// Call 1: the keyed fetch, and only it, finds crmdb down.
	res, err := e.Query(context.Background(), bindJoinQL)
	if err != nil {
		t.Fatalf("partial policy must absorb the failed keyed fetch: %v", err)
	}
	if res.Completeness.Complete || strings.Join(res.Completeness.FailedSources(), ",") != "crmdb" {
		t.Errorf("completeness = %+v, want crmdb flagged", res.Completeness)
	}
	fullSet := map[string]bool{}
	for _, v := range renderAll(full.Values) {
		fullSet[v] = true
	}
	for _, v := range renderAll(res.Values) {
		if !fullSet[v] {
			t.Errorf("partial answer holds %s, which the fault-free answer does not", v)
		}
	}
	if !strings.Contains(res.View().String(), `complete="false"`) {
		t.Errorf("answer not flagged: %s", res.View())
	}
	if n := reg.Counter("nimble_fetch_total", "source", "crmdb", "outcome", "unavailable").Value(); n != 1 {
		t.Errorf("nimble_fetch_total{crmdb,unavailable} = %d, want 1", n)
	}
	if calls, injected := faulty.Stats(); calls != 2 || injected[chaos.Unavailable] != 1 {
		t.Errorf("crmdb saw %d calls, %v injected; want 2 calls, one unavailable", calls, injected)
	}
	if st := breakers.For("crmdb").State(); st != exec.BreakerOpen {
		t.Errorf("breaker = %v, want it opened by the one failure it saw", st)
	}
	join := res.Explain.Find("HashJoin")
	if join == nil || !strings.Contains(join.Detail, "bind=3/100") || join.RowsOut != 0 {
		t.Errorf("join node = %+v", join)
	}

	// Call 2: the source is back and so is the whole answer.
	res, err = e.Query(context.Background(), bindJoinQL)
	if err != nil || !res.Completeness.Complete || strings.Join(renderAll(res.Values), "") != strings.Join(renderAll(full.Values), "") {
		t.Errorf("after recovery: %v, complete=%v, %d rows", err, res.Completeness.Complete, len(res.Values))
	}

	// Under PolicyFail the same failure is the query's error.
	e2, _ := newBindEngine(t, custs, func(s catalog.Source) catalog.Source {
		return chaos.Wrap(s, chaos.Script{Faults: []chaos.Fault{{Kind: chaos.Unavailable}}})
	}, Config{FailOnUnavailable: true})
	if _, err := e2.Query(context.Background(), bindJoinQL); !errors.Is(err, sources.ErrUnavailable) {
		t.Errorf("fail policy: err = %v, want the source's unavailability", err)
	}
}

// cancelOnFetch cancels a context the moment its source is asked for
// anything, before answering.
type cancelOnFetch struct {
	catalog.Source
	cancel context.CancelFunc
}

func (c cancelOnFetch) Inner() catalog.Source { return c.Source }

func (c cancelOnFetch) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	c.cancel()
	return c.Source.Fetch(ctx, req)
}

// TestBindJoinCancelledBetweenDrainAndFetch: a query cancelled after the
// outer side has been read and before the keyed fetch returns the
// context's error, under the partial policy too — a cancellation is not
// an unavailable source.
func TestBindJoinCancelledBetweenDrainAndFetch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, _ := newBindEngine(t, []string{"7", "12"}, func(s catalog.Source) catalog.Source {
		return cancelOnFetch{Source: s, cancel: cancel}
	}, Config{})
	// The tickets were prefetched and drained before crmdb is first asked:
	// the cancellation lands between the two.
	if _, err := e.Query(ctx, bindJoinQL); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
