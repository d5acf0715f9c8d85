package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sources"
)

// layouts names the two cache layouts for subtests.
var layouts = []struct {
	name        string
	perInstance bool
}{{"shared", false}, {"per-instance", true}}

// TestInvalidateReachesDependents: invalidating a name drops every
// cached answer that read it, through any depth of schemas defined over
// it, in every cache of either layout — and nothing that did not read it.
func TestInvalidateReachesDependents(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			cat := catalog.New()
			src, err := sources.NewXMLSource("db", `<db><t>one</t><t>two</t></db>`)
			if err != nil {
				t.Fatal(err)
			}
			if err := cat.AddSource(src); err != nil {
				t.Fatal(err)
			}
			for _, v := range [][2]string{
				{"a", `WHERE <t>$x</t> IN "db" CONSTRUCT <a>$x</a>`},
				{"b", `WHERE <a>$x</a> IN "a" CONSTRUCT <b>$x</b>`},
			} {
				if err := cat.DefineViewQL(v[0], v[1]); err != nil {
					t.Fatal(err)
				}
			}
			c := New(Config{Policy: CacheAffinity, CacheEntries: 8, CachePerInstance: l.perInstance},
				core.New(cat, core.Config{}), core.New(cat, core.Config{}))
			overB := `WHERE <b>$x</b> IN "b" CONSTRUCT <r>$x</r>`
			run := func(qs ...string) {
				t.Helper()
				for _, q := range qs {
					if _, err := c.Query(context.Background(), q); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(overB, testQuery)
			// b is defined over a: its answer goes; one over db alone stays.
			c.Invalidate("a")
			if n := c.CacheStats().Entries; n != 1 {
				t.Fatalf("after Invalidate(a): %d entries, want 1 (the query over db)", n)
			}
			run(overB, testQuery)
			if st := c.CacheStats(); st.Hits != 1 || st.Misses != 3 {
				t.Errorf("cache stats %+v, want the query over db the only hit", st)
			}
			// Both read db, one of them through two schemas.
			c.Invalidate("db")
			if n := c.CacheStats().Entries; n != 0 {
				t.Errorf("after Invalidate(db): %d entries, want 0", n)
			}
		})
	}
}

// TestAnswerReadBeforeInvalidateIsNotStored: a query whose source is
// still answering when Invalidate drops what it reads does not store its
// answer afterwards, in either layout; the next run is a miss that
// stores.
func TestAnswerReadBeforeInvalidateIsNotStored(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			cat := catalog.New()
			src := &gatedSource{name: "db", gate: make(chan struct{}), started: make(chan struct{})}
			if err := cat.AddSource(src); err != nil {
				t.Fatal(err)
			}
			c := New(Config{CacheEntries: 4, CachePerInstance: l.perInstance}, core.New(cat, core.Config{}))
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := c.Query(ctx, testQuery)
				done <- err
			}()
			<-src.started
			c.Invalidate("db")
			close(src.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := c.CacheStats().Entries; n != 0 {
				t.Fatalf("%d entries after a query that read across Invalidate, want 0", n)
			}
			go func() { <-src.started }()
			if _, err := c.Query(ctx, testQuery); err != nil {
				t.Fatal(err)
			}
			if n := c.CacheStats().Entries; n != 1 {
				t.Errorf("%d entries after a clean run, want 1", n)
			}
			requireIdle(t, c)
		})
	}
}

// TestSharedCacheHitTakesNoSlot: the shared cache answers before
// admission. With the only slot held by a query that cannot finish, a
// cached query still answers within its 50 ms deadline.
func TestSharedCacheHitTakesNoSlot(t *testing.T) {
	cat := catalog.New()
	src, err := sources.NewXMLSource("db", `<db><t>one</t></db>`)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	for _, s := range []catalog.Source{src, &gatedSource{name: "held", gate: gate}} {
		if err := cat.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	c := New(Config{Capacity: 1, CacheEntries: 4}, core.New(cat, core.Config{}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, testQuery); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, `WHERE <t>$x</t> IN "held" CONSTRUCT <r>$x</r>`)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if _, err := c.Query(short, testQuery); err != nil {
		t.Errorf("cached query waited for a slot: %v", err)
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	requireIdle(t, c)
}

// TestCacheMetricsCoverEveryCache: the nimble_qcache_* series count every
// cache the cluster holds, in either layout — the per-instance caches
// included — and the entries gauge sums them all.
func TestCacheMetricsCoverEveryCache(t *testing.T) {
	q2 := `WHERE <t>$x</t> IN "db" CONSTRUCT <other>$x</other>`
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := New(Config{Policy: RoundRobin, Metrics: reg, CacheEntries: 8, CachePerInstance: l.perInstance}, newEngines(t, 2)...)
			for _, q := range []string{testQuery, testQuery, q2, q2, testQuery} {
				if _, err := c.Query(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			st := c.CacheStats()
			// Round-robin sends each repeat to the other instance: shared,
			// every repeat hits; per instance, a query hits only on the
			// instance that ran it, so four misses fill both caches.
			want := [3]int64{3, 2, 2} // hits, misses, entries
			if l.perInstance {
				want = [3]int64{1, 4, 4}
			}
			if got := [3]int64{st.Hits, st.Misses, int64(st.Entries)}; got != want {
				t.Fatalf("cache stats %+v, want hits/misses/entries %v", st, want)
			}
			if h, m := reg.Counter("nimble_qcache_hits_total").Value(), reg.Counter("nimble_qcache_misses_total").Value(); h != st.Hits || m != st.Misses {
				t.Errorf("series hits=%d misses=%d, caches %+v", h, m, st)
			}
			var b strings.Builder
			reg.WritePrometheus(&b)
			if want := fmt.Sprintf("nimble_qcache_entries %d\n", st.Entries); !strings.Contains(b.String(), want) {
				t.Errorf("/metrics lacks %q:\n%s", want, b.String())
			}
		})
	}
}
