package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// countingSource counts fetches to verify memoization and prefetching.
type countingSource struct {
	name    string
	fetches atomic.Int64
	fail    bool
}

func (c *countingSource) Name() string                       { return c.name }
func (c *countingSource) Capabilities() catalog.Capabilities { return catalog.Capabilities{} }
func (c *countingSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	c.fetches.Add(1)
	if c.fail {
		return nil, catalog.Cost{}, fmt.Errorf("%w: %s", sources.ErrUnavailable, c.name)
	}
	b := xmldm.NewBuilder()
	return b.Elem(c.name, b.Elem("row", req.Native)), catalog.Cost{RowsReturned: 1, BytesMoved: 10}, nil
}

func newRunner(t *testing.T, srcs ...catalog.Source) *Runner {
	t.Helper()
	cat := catalog.New()
	for _, s := range srcs {
		if err := cat.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	return &Runner{Cat: cat}
}

// TestFetchStatsSingleCountOnReRead: when plan operators re-read a
// prefetched buffer (an operator re-Opening its child, two leaves
// pulling the same memoized document), FetchStats must keep Fetches at
// the physical count and attribute the re-reads to Reads instead —
// never double-counting source work.
func TestFetchStatsSingleCountOnReRead(t *testing.T) {
	src := &countingSource{name: "s"}
	r := newRunner(t, src)
	a := r.NewAccess(context.Background(), PolicyFail)

	// Prefetch, then re-read the buffer several times, as a re-Opened
	// operator subtree or parallel workers would.
	if err := a.Prefetch([]FetchSpec{{Source: "s", Req: catalog.Request{Native: "q1"}}}); err != nil {
		t.Fatal(err)
	}
	const reReads = 6
	for i := 0; i < reReads; i++ {
		if _, err := a.Roots("s", catalog.Request{Native: "q1"}); err != nil {
			t.Fatal(err)
		}
	}

	if src.fetches.Load() != 1 {
		t.Fatalf("physical fetches = %d, want 1", src.fetches.Load())
	}
	stats := a.FetchStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v, want one source", stats)
	}
	fs := stats[0]
	if fs.Fetches != 1 {
		t.Errorf("Fetches = %d, want 1 (re-reads must not count as new fetches)", fs.Fetches)
	}
	if fs.Rows != 1 {
		t.Errorf("Rows = %d, want 1 (re-reads must not double-count rows)", fs.Rows)
	}
	if fs.Reads != 1+reReads {
		t.Errorf("Reads = %d, want %d (prefetch + re-reads)", fs.Reads, 1+reReads)
	}

	// A distinct request to the same source is real new work: both
	// counters advance.
	if _, err := a.Roots("s", catalog.Request{Native: "q2"}); err != nil {
		t.Fatal(err)
	}
	fs = a.FetchStats()[0]
	if fs.Fetches != 2 || fs.Reads != 2+reReads {
		t.Errorf("after second spec: Fetches = %d Reads = %d, want 2 and %d", fs.Fetches, fs.Reads, 2+reReads)
	}
}

func TestRootsAndMemoization(t *testing.T) {
	src := &countingSource{name: "s"}
	r := newRunner(t, src)
	a := r.NewAccess(context.Background(), PolicyFail)
	for i := 0; i < 5; i++ {
		roots, err := a.Roots("s", catalog.Request{Native: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		if len(roots) != 1 {
			t.Fatalf("roots = %d", len(roots))
		}
	}
	if src.fetches.Load() != 1 {
		t.Errorf("fetches = %d, want memoized 1", src.fetches.Load())
	}
	// A different request fetches again.
	if _, err := a.Roots("s", catalog.Request{Native: "q2"}); err != nil {
		t.Fatal(err)
	}
	if src.fetches.Load() != 2 {
		t.Errorf("fetches = %d", src.fetches.Load())
	}
	rep := a.Report()
	if !rep.Complete || len(rep.Statuses) != 1 || rep.Statuses[0].Rows != 2 {
		t.Errorf("report = %+v", rep)
	}
}

func TestPartialPolicySwallowsUnavailability(t *testing.T) {
	up := &countingSource{name: "up"}
	down := &countingSource{name: "down", fail: true}
	r := newRunner(t, up, down)

	a := r.NewAccess(context.Background(), PolicyPartial)
	roots, err := a.Roots("down", catalog.Request{})
	if err != nil || roots != nil {
		t.Errorf("partial policy: %v, %v", roots, err)
	}
	if _, err := a.Roots("up", catalog.Request{}); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if rep.Complete {
		t.Error("report should be incomplete")
	}
	if got := rep.FailedSources(); len(got) != 1 || got[0] != "down" {
		t.Errorf("failed = %v", got)
	}

	// Fail policy surfaces the error.
	af := r.NewAccess(context.Background(), PolicyFail)
	if _, err := af.Roots("down", catalog.Request{}); !errors.Is(err, sources.ErrUnavailable) {
		t.Errorf("fail policy err = %v", err)
	}
}

func TestPrefetchParallelAndPolicied(t *testing.T) {
	a1 := &countingSource{name: "a"}
	b1 := &countingSource{name: "b"}
	dead := &countingSource{name: "dead", fail: true}
	r := newRunner(t, a1, b1, dead)

	a := r.NewAccess(context.Background(), PolicyPartial)
	specs := []FetchSpec{
		{Source: "a", Req: catalog.Request{}},
		{Source: "b", Req: catalog.Request{}},
		{Source: "dead", Req: catalog.Request{}},
	}
	if err := a.Prefetch(specs); err != nil {
		t.Fatalf("partial prefetch should not fail: %v", err)
	}
	// Roots afterwards hit the memo.
	a.Roots("a", catalog.Request{})
	if a1.fetches.Load() != 1 {
		t.Errorf("prefetch + roots fetched %d times", a1.fetches.Load())
	}

	af := r.NewAccess(context.Background(), PolicyFail)
	if err := af.Prefetch(specs); err == nil {
		t.Error("fail-policy prefetch should surface unavailability")
	}
}

func TestConcurrentRootsSingleFetch(t *testing.T) {
	src := &countingSource{name: "s"}
	r := newRunner(t, src)
	a := r.NewAccess(context.Background(), PolicyFail)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Roots("s", catalog.Request{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if src.fetches.Load() != 1 {
		t.Errorf("concurrent fetches = %d, want 1", src.fetches.Load())
	}
}

func TestLocalStoreBeforeRemote(t *testing.T) {
	src := &countingSource{name: "s"}
	r := newRunner(t, src)
	b := xmldm.NewBuilder()
	local := b.Elem("s", b.Elem("cached"))
	r.Local = func(source string, _ catalog.Request) (*xmldm.Node, bool) {
		if source == "s" {
			return local, true
		}
		return nil, false
	}
	a := r.NewAccess(context.Background(), PolicyFail)
	roots, err := a.Roots("s", catalog.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if roots[0].(*xmldm.Node) != local {
		t.Error("local store not consulted")
	}
	if src.fetches.Load() != 0 {
		t.Error("remote fetched despite local copy")
	}
	rep := a.Report()
	if len(rep.Statuses) != 1 || !rep.Statuses[0].Local {
		t.Errorf("report = %+v", rep)
	}
}

func TestSchemaMaterializationPath(t *testing.T) {
	cat := catalog.New()
	if err := cat.DefineViewQL("sch", `WHERE <a>$x</a> IN "s" CONSTRUCT <b>$x</b>`); err != nil {
		t.Fatal(err)
	}
	called := 0
	r := &Runner{
		Cat: cat,
		Materialize: func(_ context.Context, schema string, _ *Access) (*xmldm.Node, error) {
			called++
			b := xmldm.NewBuilder()
			return b.Elem(schema, b.Elem("b", "1")), nil
		},
	}
	a := r.NewAccess(context.Background(), PolicyFail)
	roots, err := a.Roots("sch", catalog.Request{})
	if err != nil || len(roots) != 1 {
		t.Fatalf("roots = %v, %v", roots, err)
	}
	a.Roots("sch", catalog.Request{})
	if called != 1 {
		t.Errorf("materialize called %d times (memoization)", called)
	}
	// Without a materializer the schema fetch fails loudly.
	r2 := &Runner{Cat: cat}
	a2 := r2.NewAccess(context.Background(), PolicyFail)
	if _, err := a2.Roots("sch", catalog.Request{}); err == nil || !strings.Contains(err.Error(), "materialization") {
		t.Errorf("err = %v", err)
	}
}

func TestReportAggregatesMultipleFetches(t *testing.T) {
	src := &countingSource{name: "s"}
	r := newRunner(t, src)
	a := r.NewAccess(context.Background(), PolicyFail)
	a.Roots("s", catalog.Request{Native: "q1"})
	a.Roots("s", catalog.Request{Native: "q2"})
	rep := a.Report()
	if len(rep.Statuses) != 1 || rep.Statuses[0].Rows != 2 || rep.Statuses[0].Bytes != 20 {
		t.Errorf("aggregate status = %+v", rep.Statuses)
	}
}

func TestUnknownSourceError(t *testing.T) {
	r := newRunner(t)
	a := r.NewAccess(context.Background(), PolicyPartial)
	if _, err := a.Roots("ghost", catalog.Request{}); err == nil {
		t.Error("unknown source must error even under partial policy")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyFail.String() != "fail" || PolicyPartial.String() != "partial" {
		t.Error("policy names")
	}
}

func TestPrefetchStopsFanoutOnCancel(t *testing.T) {
	srcs := make([]catalog.Source, 8)
	counters := make([]*countingSource, 8)
	specs := make([]FetchSpec, 8)
	for i := range srcs {
		c := &countingSource{name: fmt.Sprintf("s%d", i)}
		counters[i] = c
		srcs[i] = c
		specs[i] = FetchSpec{Source: c.name, Req: catalog.Request{}}
	}
	r := newRunner(t, srcs...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no fetch goroutine should launch
	a := r.NewAccess(ctx, PolicyPartial)
	if err := a.Prefetch(specs); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	for i, c := range counters {
		if n := c.fetches.Load(); n != 0 {
			t.Errorf("source %d fetched %d times after cancellation", i, n)
		}
	}
}

func TestFetchSpansMatchCompletenessReport(t *testing.T) {
	up := &countingSource{name: "up"}
	down := &countingSource{name: "down", fail: true}
	r := newRunner(t, up, down)
	root := obs.NewSpan("query")
	ctx := obs.ContextWithSpan(context.Background(), root)
	a := r.NewAccess(ctx, PolicyPartial)
	a.Roots("up", catalog.Request{})
	a.Roots("down", catalog.Request{})
	root.Finish()

	rep := a.Report()
	spans := root.Tree().FindAll("fetch ")
	if len(spans) != len(rep.Statuses) {
		t.Fatalf("spans = %d, statuses = %d", len(spans), len(rep.Statuses))
	}
	for _, st := range rep.Statuses {
		var sp *obs.Span
		for _, s := range spans {
			if v, _ := s.Attr("source"); strings.EqualFold(v, st.Source) {
				sp = s
				break
			}
		}
		if sp == nil {
			t.Fatalf("no span for source %s", st.Source)
		}
		if rows, _ := sp.Attr("rows"); st.Err == "" && rows != fmt.Sprint(st.Rows) {
			t.Errorf("%s span rows = %s, status rows = %d", st.Source, rows, st.Rows)
		}
		errAttr, hasErr := sp.Attr("error")
		if (st.Err != "") != hasErr || (hasErr && !strings.Contains(errAttr, st.Err)) {
			t.Errorf("%s span error = %q, status err = %q", st.Source, errAttr, st.Err)
		}
		if local, _ := sp.Attr("local"); st.Err == "" && local != fmt.Sprint(st.Local) {
			t.Errorf("%s span local = %s, status local = %v", st.Source, local, st.Local)
		}
	}
}

func TestFetchMetricsRecorded(t *testing.T) {
	up := &countingSource{name: "up"}
	down := &countingSource{name: "down", fail: true}
	r := newRunner(t, up, down)
	reg := obs.NewRegistry()
	r.Metrics = reg
	a := r.NewAccess(context.Background(), PolicyPartial)
	a.Roots("up", catalog.Request{})
	a.Roots("down", catalog.Request{})
	if n := reg.Counter("nimble_fetch_total", "source", "up", "outcome", "ok").Value(); n != 1 {
		t.Errorf("ok fetches = %d", n)
	}
	if n := reg.Counter("nimble_fetch_total", "source", "down", "outcome", "unavailable").Value(); n != 1 {
		t.Errorf("unavailable fetches = %d", n)
	}
	if c := reg.Histogram("nimble_fetch_seconds", "source", "up").Count(); c != 1 {
		t.Errorf("latency observations = %d", c)
	}
}
