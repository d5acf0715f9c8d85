// Package qcache is the query-result cache of the integration engine
// (§3.3 cites Adali et al.'s query caching in mediator systems [1], and
// lists "caching and other performance tuning capabilities" among the
// product's needs in §4). Results are cached under Key, the query text
// with whitespace runs collapsed, so spellings that differ only in
// whitespace share one entry; eviction is LRU, expiry an optional TTL,
// and invalidation by name: every entry is tagged with the sources and
// schemas its answer read, and invalidating a name drops exactly the
// entries tagged with it. internal/cluster owns every cache and decides
// which names a change reaches.
package qcache

import (
	"container/list"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/xmldm"
)

// Key canonicalizes query text into a stable cache key: whitespace
// runs collapse to single spaces, so differently formatted spellings of
// one query agree. The cluster front end hashes this same key for
// cache-affinity routing, which is what makes "route repeats to the
// instance whose cache is warm" line up with what the cache actually
// stores — the two layers must agree on the key or affinity wins
// nothing. The key is strings.Join(strings.Fields(query), " "), made in
// one scan: a query whose words are already joined by single spaces
// yields a substring of itself (no allocation), any other one allocation.
func Key(query string) string {
	var b strings.Builder // the key, once it is no substring of query
	from, to := -1, 0     // until then, the key is query[from:to]
	for i := 0; i < len(query); {
		// Skip a whitespace run, then take the word after it.
		space, size := spaceAt(query, i)
		if space {
			i += size
			continue
		}
		start := i
		for i < len(query) {
			if space, size = spaceAt(query, i); space {
				break
			}
			i += size
		}
		switch {
		case from < 0:
			from, to = start, i
		case b.Cap() == 0 && start == to+1 && query[to] == ' ':
			to = i
		case b.Cap() == 0:
			b.Grow(len(query))
			b.WriteString(query[from:to])
			fallthrough
		default:
			b.WriteByte(' ')
			b.WriteString(query[start:i])
		}
	}
	if b.Cap() > 0 {
		return b.String()
	}
	if from < 0 {
		return ""
	}
	return query[from:to]
}

// spaceAt reports whether the rune at s[i] is white space by
// unicode.IsSpace, as strings.Fields reads it (an invalid byte is not),
// and its width.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return c == ' ' || c >= '\t' && c <= '\r', 1
	}
	r, size := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), size
}

// Result is a cached query answer.
type Result struct {
	Values  []xmldm.Value
	Sources []string // the sources and schemas the answer read
}

type cacheEntry struct {
	key      string
	res      Result
	storedAt time.Time
	elem     *list.Element
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// HitRate is hits / (hits + misses); 0 on no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bounded LRU query-result cache, safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int                        // guarded by mu
	ttl      time.Duration              // guarded by mu
	entries  map[string]*cacheEntry     // guarded by mu
	lru      *list.List                 // guarded by mu; front = most recent
	bySource map[string]map[string]bool // guarded by mu
	stats    Stats                      // guarded by mu
	clock    func() time.Time           // guarded by mu
	gen      uint64                     // guarded by mu; invalidations run

	// observability counters, nil (no-op) until SetMetrics.
	mHits, mMisses, mEvictions *obs.Counter // guarded by mu
}

// SetMetrics mirrors the cache counters into a metrics registry
// (nimble_qcache_{hits,misses,evictions}_total). Caches sharing a
// registry add into the same series; the entries gauge is registered
// once by whoever holds the caches, over all of them.
func (c *Cache) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter("nimble_qcache_hits_total")
	c.mMisses = reg.Counter("nimble_qcache_misses_total")
	c.mEvictions = reg.Counter("nimble_qcache_evictions_total")
}

// New creates a cache of the given entry capacity; ttl 0 disables
// time-based expiry.
func New(capacity int, ttl time.Duration) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
		bySource: make(map[string]map[string]bool),
		clock:    time.Now,
	}
}

// SetClock replaces the time source for TTL tests.
func (c *Cache) SetClock(fn func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = fn
}

// Get returns the cached result for a query key.
func (c *Cache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		c.mMisses.Inc()
		return Result{}, false
	}
	if c.ttl > 0 && c.clock().Sub(e.storedAt) > c.ttl {
		c.removeLocked(e)
		c.stats.Misses++
		c.mMisses.Inc()
		return Result{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	c.mHits.Inc()
	return e.res, true
}

// Generation counts the invalidations the cache has run. A caller reads
// it before computing an answer and stores the answer with PutAt, so
// that an answer computed across an invalidation is not stored after it.
func (c *Cache) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PutAt is Put unless an invalidation ran since Generation returned gen;
// then the answer may predate what was invalidated, and it reports false
// without storing it.
func (c *Cache) PutAt(key string, res Result, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return false
	}
	c.putLocked(key, res)
	return true
}

// Put stores a result under the query key.
func (c *Cache) Put(key string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, res)
}

func (c *Cache) putLocked(key string, res Result) {
	if e, ok := c.entries[key]; ok {
		c.unindexLocked(e)
		e.res = res
		e.storedAt = c.clock()
		c.indexLocked(e)
		c.lru.MoveToFront(e.elem)
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*cacheEntry))
		c.stats.Evictions++
		c.mEvictions.Inc()
	}
	e := &cacheEntry{key: key, res: res, storedAt: c.clock()}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.indexLocked(e)
}

// InvalidateSource drops every cached result that read the named source
// or schema.
func (c *Cache) InvalidateSource(source string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	key := strings.ToLower(source)
	keys := c.bySource[key]
	n := 0
	for k := range keys {
		if e, ok := c.entries[k]; ok {
			c.removeLocked(e)
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

func (c *Cache) indexLocked(e *cacheEntry) {
	for _, s := range e.res.Sources {
		key := strings.ToLower(s)
		if c.bySource[key] == nil {
			c.bySource[key] = map[string]bool{}
		}
		c.bySource[key][e.key] = true
	}
}

func (c *Cache) unindexLocked(e *cacheEntry) {
	for _, s := range e.res.Sources {
		key := strings.ToLower(s)
		if m := c.bySource[key]; m != nil {
			delete(m, e.key)
			if len(m) == 0 {
				delete(c.bySource, key)
			}
		}
	}
}

func (c *Cache) removeLocked(e *cacheEntry) {
	c.unindexLocked(e)
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}
