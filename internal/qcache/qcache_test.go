package qcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xmldm"
)

func res(v string, sources ...string) Result {
	return Result{Values: []xmldm.Value{xmldm.String(v)}, Sources: sources}
}

func TestPutGet(t *testing.T) {
	c := New(10, 0)
	c.Put("q1", res("a", "s1"))
	got, ok := c.Get("q1")
	if !ok || len(got.Values) != 1 || xmldm.Stringify(got.Values[0]) != "a" {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := c.Get("q2"); ok {
		t.Error("miss expected")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, 0)
	c.Put("a", res("1"))
	c.Put("b", res("2"))
	c.Get("a") // refresh a
	c.Put("c", res("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted (least recently used)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(2, 0)
	c.Put("a", res("1", "s1"))
	c.Put("a", res("2", "s2"))
	got, _ := c.Get("a")
	if xmldm.Stringify(got.Values[0]) != "2" {
		t.Errorf("replace failed: %v", got)
	}
	// Old source index dropped: invalidating s1 must not kill the entry.
	if n := c.InvalidateSource("s1"); n != 0 {
		t.Errorf("invalidate s1 = %d", n)
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("entry lost")
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(10, time.Minute)
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })
	c.Put("a", res("1"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Error("expired entry should miss")
	}
	if c.Stats().Entries != 0 {
		t.Error("expired entry should be removed")
	}
}

func TestInvalidateSource(t *testing.T) {
	c := New(10, 0)
	c.Put("q1", res("1", "s1", "s2"))
	c.Put("q2", res("2", "s2"))
	c.Put("q3", res("3", "s3"))
	if n := c.InvalidateSource("S2"); n != 2 {
		t.Errorf("invalidated = %d", n)
	}
	if _, ok := c.Get("q1"); ok {
		t.Error("q1 should be gone")
	}
	if _, ok := c.Get("q3"); !ok {
		t.Error("q3 should survive")
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New(0, 0) // clamps to 1
	c.Put("a", res("1"))
	c.Put("b", res("2"))
	if c.Stats().Entries != 1 {
		t.Errorf("entries = %d", c.Stats().Entries)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%32)
				if i%3 == 0 {
					c.Put(key, res("v", "s1"))
				} else {
					c.Get(key)
				}
				if i%50 == 0 {
					c.InvalidateSource("s1")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMetricsMirrorStats(t *testing.T) {
	c := New(2, 0)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	c.Get("q1") // miss
	c.Put("q1", Result{})
	c.Get("q1") // hit
	c.Put("q2", Result{})
	c.Put("q3", Result{}) // evicts q1 (capacity 2)
	if n := reg.Counter("nimble_qcache_hits_total").Value(); n != 1 {
		t.Errorf("hits = %d", n)
	}
	if n := reg.Counter("nimble_qcache_misses_total").Value(); n != 1 {
		t.Errorf("misses = %d", n)
	}
	if n := reg.Counter("nimble_qcache_evictions_total").Value(); n != 1 {
		t.Errorf("evictions = %d", n)
	}
	// The entries gauge belongs to the cluster, which sums it over every
	// cache it holds (internal/cluster TestCacheMetricsCoverEveryCache).
	var b strings.Builder
	reg.WritePrometheus(&b)
	if strings.Contains(b.String(), "nimble_qcache_entries") {
		t.Errorf("a lone cache registered the entries gauge:\n%s", b.String())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}
