package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// physicalCounter counts the physical fetches of a relational source in
// either form; embedding keeps its row capability.
type physicalCounter struct {
	*sources.RelationalSource
	docs, rows atomic.Int64
}

func (c *physicalCounter) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	c.docs.Add(1)
	return c.RelationalSource.Fetch(ctx, req)
}

func (c *physicalCounter) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	c.rows.Add(1)
	return c.RelationalSource.FetchRows(ctx, req)
}

// documentsOnly hides every capability of its source but Fetch: what a
// wrapper that does not forward rows looks like to the access.
type documentsOnly struct{ inner catalog.Source }

func (d documentsOnly) Name() string                       { return d.inner.Name() }
func (d documentsOnly) Capabilities() catalog.Capabilities { return d.inner.Capabilities() }
func (d documentsOnly) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	return d.inner.Fetch(ctx, req)
}

// TestRowAnswerIsOneFetchAndRendersTheExport: a native request to a
// source that answers in rows is fetched once by Prefetch, read by Rows,
// and read again by Roots, which renders the export once — byte for byte
// the document Fetch returns — and hands every caller that same tree.
// FetchStats and the completeness report read as they do for the same
// reads through a source that answers with the document.
func TestRowAnswerIsOneFetchAndRendersTheExport(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada', 'London'), (2, 'Al <&> Co', NULL), (3, '', 'Oslo')`)
	rel := sources.NewRelationalSource("CrmDB", db)
	req := catalog.Request{Native: `SELECT id, name, city FROM customers`, Collection: "customers"}
	want, wantCost, err := rel.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	counter := &physicalCounter{RelationalSource: rel}
	r := newRunner(t, counter)
	a := r.NewAccess(context.Background(), PolicyFail)
	if err := a.Prefetch([]FetchSpec{{Source: "crmdb", Req: req}}); err != nil {
		t.Fatal(err)
	}
	res, ok, err := a.Rows("crmdb", req)
	if err != nil || !ok || len(res.Rows) != 3 {
		t.Fatalf("Rows = %v, %v, %v", res, ok, err)
	}
	roots, err := a.Roots("crmdb", req)
	if err != nil || len(roots) != 1 {
		t.Fatalf("Roots = %v, %v", roots, err)
	}
	if again, _ := a.Roots("crmdb", req); again[0] != roots[0] {
		t.Error("a second Roots rendered the export again")
	}
	if got := xmlparse.SerializeString(roots[0].(*xmldm.Node), 0); got != xmlparse.SerializeString(want, 0) {
		t.Errorf("rendered export:\n%s\nFetch's:\n%s", got, xmlparse.SerializeString(want, 0))
	}
	if d, n := counter.docs.Load(), counter.rows.Load(); d != 0 || n != 1 {
		t.Errorf("physical fetches: %d documents, %d row answers; want one row answer", d, n)
	}

	// The same reads through a source that hides the capability: Rows
	// declines without counting a read, so a scan's Roots after it is its
	// one read, and the two Roots above follow.
	twin := newRunner(t, documentsOnly{rel}).NewAccess(context.Background(), PolicyFail)
	if err := twin.Prefetch([]FetchSpec{{Source: "crmdb", Req: req}}); err != nil {
		t.Fatal(err)
	}
	if res, ok, err := twin.Rows("crmdb", req); ok || res != nil || err != nil {
		t.Fatalf("document answer: Rows = %v, %v, %v; want it declined", res, ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := twin.Roots("crmdb", req); err != nil {
			t.Fatal(err)
		}
	}
	got, wantStats := a.FetchStats(), twin.FetchStats()
	if len(got) != 1 || len(wantStats) != 1 {
		t.Fatalf("fetch stats %+v, twin %+v", got, wantStats)
	}
	got[0].Nanos, wantStats[0].Nanos = 0, 0
	if got[0] != wantStats[0] || got[0].Fetches != 1 || got[0].Reads != 4 || got[0].Bytes != wantCost.BytesMoved {
		t.Errorf("fetch stats %+v, twin %+v (cost %+v)", got[0], wantStats[0], wantCost)
	}
	if rep, twinRep := a.Report(), twin.Report(); len(rep.Statuses) != 1 || rep.Statuses[0] != twinRep.Statuses[0] {
		t.Errorf("report %+v, twin %+v", rep, twinRep)
	}
}

// TestConcurrentReadersShareOneRowAnswer: scans reading one row answer
// concurrently, some as rows and some as the document, make one
// physical fetch and all receive the one rendered export.
func TestConcurrentReadersShareOneRowAnswer(t *testing.T) {
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada'), (2, 'Alan')`)
	counter := &physicalCounter{RelationalSource: sources.NewRelationalSource("crmdb", db)}
	a := newRunner(t, counter).NewAccess(context.Background(), PolicyFail)
	req := catalog.Request{Native: `SELECT name FROM customers`, Collection: "customers"}
	docs := make([]*xmldm.Node, 8)
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, ok, err := a.Rows("crmdb", req); err != nil || !ok || len(res.Rows) != 2 {
				t.Errorf("reader %d: Rows = %v, %v, %v", i, res, ok, err)
			}
			roots, err := a.Roots("crmdb", req)
			if err != nil || len(roots) != 1 {
				t.Errorf("reader %d: Roots = %v, %v", i, roots, err)
				return
			}
			docs[i] = roots[0].(*xmldm.Node)
		}(i)
	}
	wg.Wait()
	for i, d := range docs {
		if d != docs[0] {
			t.Errorf("reader %d got another document", i)
		}
	}
	if n := counter.rows.Load() + counter.docs.Load(); n != 1 {
		t.Errorf("%d physical fetches, want 1", n)
	}
}
