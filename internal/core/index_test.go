package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// The XML access path: a leaf Match over a source that indexes the
// document it serves takes its candidates from the index, and from a walk
// whenever the document it is handed is any other. These tests hold the
// answers to the walk's and the shared documents to immutability.

const highTicketsQL = `
	WHERE <ticket pri="high"><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
	CONSTRUCT <r><cust>$i</cust><subject>$s</subject></r>`

// copyingSource hands out a copy of its inner source's document — a
// stand-in for any wrapper that substitutes the document its source
// indexes. Inner lets the planner find the index through it, as it finds
// descriptors and statistics.
type copyingSource struct{ catalog.Source }

func (c copyingSource) Inner() catalog.Source { return c.Source }

func (c copyingSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	doc, cost, err := c.Source.Fetch(ctx, req)
	if err != nil {
		return nil, cost, err
	}
	cp := algebra.CopyNode(doc)
	xmldm.Finalize(cp)
	return cp, cost, nil
}

// opaqueSource hides every capability of its inner source: what a source
// without an index looks like to the planner.
type opaqueSource struct{ inner catalog.Source }

func (o opaqueSource) Name() string                       { return o.inner.Name() }
func (o opaqueSource) Capabilities() catalog.Capabilities { return o.inner.Capabilities() }
func (o opaqueSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	return o.inner.Fetch(ctx, req)
}

// TestExplainGoldenIndexedLeaf: a pattern that tests an attribute against
// a literal reads the (element, attribute, value) list — the two
// high-priority tickets, not all three — and the leaf says which list.
func TestExplainGoldenIndexedLeaf(t *testing.T) {
	e, _ := newTestEngineOver(t, testTickets, Config{Parallelism: 1})
	res, err := e.Query(context.Background(), highTicketsQL)
	if err != nil {
		t.Fatal(err)
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=2 in=2 time=?ms
├─ Match [fetch tickets <ticket> index ticket[@pri='high']] out=2 in=1 time=?ms peak=1
│  └─ Singleton out=1 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	// Two tickets and their two children each; the walk would also try
	// the low-priority ticket.
	if res.Stats.PatternMatches != 6 {
		t.Errorf("pattern matches = %d, want 6", res.Stats.PatternMatches)
	}
}

// TestExplainGoldenWalkedLeaf: behind a wrapper that substitutes the
// document, the planner still finds the index, the index does not answer
// for the copy, and the leaf walks it — same answer, and EXPLAIN says
// walk once the leaf has run.
func TestExplainGoldenWalkedLeaf(t *testing.T) {
	indexed, _ := newTestEngineOver(t, testTickets, Config{Parallelism: 1})
	want, err := indexed.Query(context.Background(), highTicketsQL)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := newTestEngineOver(t, testTickets, Config{Parallelism: 1})
	src, err := e.Catalog().Source("tickets")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().ReplaceSource(copyingSource{src}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), highTicketsQL)
	if err != nil {
		t.Fatal(err)
	}
	got := scrubTimes(res.Explain.Render())
	wantTree := strings.TrimPrefix(`
Query [rewrites=1] out=2 in=2 time=?ms
├─ Match [fetch tickets <ticket> walk] out=2 in=1 time=?ms peak=1
│  └─ Singleton out=1 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != wantTree {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, wantTree)
	}
	if got, want := res.Document().String(), want.Document().String(); got != want {
		t.Errorf("walked answer differs from the indexed one:\n%s\nwant:\n%s", got, want)
	}
	if res.Stats.PatternMatches != 7 {
		t.Errorf("pattern matches = %d, want the walk's 7", res.Stats.PatternMatches)
	}
}

// TestIndexedSourceUnderChaosMatchesUnindexedTwin: truncated, garbage and
// unavailable fetches of the indexed tickets source, retried or flagged,
// give byte for byte the answer — and error — a twin whose tickets source
// has no index gives under the same fault schedule.
func TestIndexedSourceUnderChaosMatchesUnindexedTwin(t *testing.T) {
	script := chaos.Script{Faults: []chaos.Fault{
		{Kind: chaos.Malformed}, {}, // retried: complete
		{Kind: chaos.Malformed}, {Kind: chaos.Malformed}, // out of retries: flagged
		{Kind: chaos.Garbage}, // not transient: the query fails
		{Kind: chaos.Unavailable}, {Kind: chaos.Unavailable},
		{}, {Kind: chaos.Malformed}, {},
	}}
	engine := func(hide bool) *Engine {
		e, _ := newTestEngineOver(t, testTickets, Config{Resilience: exec.Resilience{Retries: 1}, Clock: chaos.NewFakeClock()})
		src, err := e.Catalog().Source("tickets")
		if err != nil {
			t.Fatal(err)
		}
		if hide {
			src = opaqueSource{src}
		}
		if err := e.Catalog().ReplaceSource(chaos.Wrap(src, script)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	indexed, twin := engine(false), engine(true)
	queries := []string{highTicketsQL, twoSourceJoinQL}
	outcomes := map[string]int{}
	for k := 0; k < 8; k++ {
		q := queries[k%len(queries)]
		res, err := indexed.Query(context.Background(), q)
		tres, terr := twin.Query(context.Background(), q)
		if fmt.Sprint(err) != fmt.Sprint(terr) {
			t.Fatalf("query %d: error %v, twin's %v", k, err, terr)
		}
		if err != nil {
			outcomes["failed"]++
			continue
		}
		if got, want := res.Document().String(), tres.Document().String(); got != want {
			t.Fatalf("query %d: answer differs from the unindexed twin's\n%s\nwant:\n%s", k, got, want)
		}
		if res.Completeness.Complete {
			outcomes["complete"]++
			if leaf := res.Explain.Find("Match"); leaf == nil || !strings.Contains(leaf.Detail, "index ticket") {
				t.Errorf("query %d: complete answer's leaf = %+v, want it to read the index", k, leaf)
			}
		} else {
			outcomes["flagged"]++
		}
	}
	if outcomes["complete"] < 2 || outcomes["flagged"] < 2 || outcomes["failed"] < 1 {
		t.Fatalf("outcomes %v: the schedule no longer covers retried, flagged and failed fetches", outcomes)
	}
}

// TestStaticReplaceRacesQueries: queries race StaticSource.Replace. Every
// answer comes from one document version — all its rows name the same
// version, and as many as a version has — and once Replace returns, the
// next query sees the new version.
func TestStaticReplaceRacesQueries(t *testing.T) {
	const versions, rows = 40, 3
	doc := func(v int) *xmldm.Node {
		var sb strings.Builder
		sb.WriteString("<tickets>")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, `<ticket pri="high"><cust>%d</cust><subject>v%d</subject></ticket><ticket pri="low"><cust>0</cust><subject>x</subject></ticket>`, r, v)
		}
		sb.WriteString("</tickets>")
		src, err := sources.NewXMLSource("tickets", sb.String())
		if err != nil {
			t.Fatal(err)
		}
		d, _, _ := src.Fetch(context.Background(), catalog.Request{})
		return d
	}
	docs := make([]*xmldm.Node, versions)
	for v := range docs {
		docs[v] = doc(v)
	}
	src := catalog.NewStaticSource("tickets", docs[0])
	cat := catalog.New()
	if err := cat.AddSource(src); err != nil {
		t.Fatal(err)
	}
	e := New(cat, Config{})
	version := func() (int, error) {
		res, err := e.Query(context.Background(), highTicketsQL)
		if err != nil {
			return 0, err
		}
		if len(res.Values) != rows {
			return 0, fmt.Errorf("%d rows, want %d", len(res.Values), rows)
		}
		seen := -1
		for _, v := range res.Values {
			var n int
			if _, err := fmt.Sscanf(v.(*xmldm.Node).Child("subject").Text(), "v%d", &n); err != nil {
				return 0, err
			}
			if seen >= 0 && n != seen {
				return 0, fmt.Errorf("one answer mixes versions %d and %d", seen, n)
			}
			seen = n
		}
		return seen, nil
	}
	raceReaders(t, func() error { _, err := version(); return err }, func() {
		for v := 1; v < versions; v++ {
			src.Replace(docs[v])
			if got, err := version(); err != nil || got != v {
				t.Errorf("after Replace to version %d the next query saw %d (%v)", v, got, err)
			}
		}
	})
}

// TestDirectoryPutRacesQueries: queries race DirectorySource.Put, each Put
// adding one entry. Every answer is one snapshot — the entries 0..k of
// some k, none missing — and once Put returns, the next query sees it.
func TestDirectoryPutRacesQueries(t *testing.T) {
	const entries = 40
	dir := sources.NewDirectorySource("staff", "org")
	cat := catalog.New()
	if err := cat.AddSource(dir); err != nil {
		t.Fatal(err)
	}
	put := func(k int) {
		if err := dir.Put(fmt.Sprintf("team%d/s%02d", k%3, k), map[string]string{"sid": fmt.Sprintf("s%02d", k), "ver": fmt.Sprint(k)}); err != nil {
			t.Error(err)
		}
	}
	put(0)
	e := New(cat, Config{})
	const ql = `WHERE <*><sid>$s</sid><ver>$v</ver></> IN "staff" CONSTRUCT <r>$v</r>`
	newest := func() (int, error) {
		res, err := e.Query(context.Background(), ql)
		if err != nil {
			return 0, err
		}
		seen := map[string]bool{}
		for _, v := range res.Values {
			seen[xmldm.Stringify(v)] = true
		}
		for k := 0; k < len(seen); k++ {
			if !seen[fmt.Sprint(k)] {
				return 0, fmt.Errorf("answer %v is no snapshot: entry %d missing", texts(res.Values), k)
			}
		}
		return len(seen) - 1, nil
	}
	raceReaders(t, func() error { _, err := newest(); return err }, func() {
		for k := 1; k < entries; k++ {
			put(k)
			if got, err := newest(); err != nil || got != k {
				t.Errorf("after Put of entry %d the next query saw up to %d (%v)", k, got, err)
			}
		}
	})
}

// raceReaders runs read in four goroutines until write returns.
func raceReaders(t *testing.T, read func() error, write func()) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	write()
	close(stop)
	wg.Wait()
}

// TestSharedSnapshotSurvivesElementAsConstruct: queries that bind whole
// entries and their content out of the directory's shared snapshot
// (ELEMENT_AS, CONTENT_AS), match inside them and CONSTRUCT with them —
// answers copied, explained and edited — leave every node of the
// snapshot where it was: same parent, ordinal and children.
func TestSharedSnapshotSurvivesElementAsConstruct(t *testing.T) {
	dir := sources.NewDirectorySource("staff", "org")
	for _, p := range []string{"support/s1", "billing/s2", "support/s3"} {
		if err := dir.Put(p, map[string]string{"sid": p[len(p)-2:], "name": "N" + p[len(p)-1:]}); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	if err := cat.AddSource(dir); err != nil {
		t.Fatal(err)
	}
	doc, _, err := dir.Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func() string {
		var sb strings.Builder
		doc.Walk(func(n *xmldm.Node) bool {
			fmt.Fprintf(&sb, "%p %s parent=%p ord=%d children=%p%v\n", n, n.Name, n.Parent, n.Ord, n.Children, n.Children)
			return true
		})
		return sb.String()
	}
	before := fingerprint()
	for _, par := range parallelDegrees {
		e := New(cat, Config{Parallelism: par})
		for _, q := range []string{
			`WHERE <*><sid>$s</sid></> ELEMENT_AS $e CONTENT_AS $c IN "staff"
			 CONSTRUCT <r id=$s>$e<content>$c</content></r>`,
			`WHERE <support></support> ELEMENT_AS $t IN "staff", <*><name>$n</name></> ELEMENT_AS $p IN $t
			 CONSTRUCT <team>$t<who>$p</who>{ WHERE <sid>$x</sid> IN $p CONSTRUCT <id>$x</id> }</team>`,
		} {
			res, err := e.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) == 0 {
				t.Fatalf("no rows (weak test): %s", q)
			}
			out := res.Document()
			out.Children = append(out.Children, xmldm.String("edited"))
			xmldm.Finalize(out)
		}
	}
	again, _, err := dir.Fetch(context.Background(), catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if again != doc {
		t.Fatal("the whole export is rebuilt although nothing was Put")
	}
	if after := fingerprint(); after != before {
		t.Errorf("queries changed the shared snapshot\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
