// TraceStore: retention and sampling for completed traces. The store
// replaces PR 1's last-N Tracer with a real sampling pipeline: a head
// decision (deterministic hash of the TraceID against a sample rate)
// plus tail-based keeps that always retain the traces worth keeping —
// errored traces and traces slower than a threshold — regardless of the
// head coin flip. Kept traces land in a bounded ring searchable from
// /debug/traces and stream to an optional batching exporter.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceBuffer is the trace retention used when no limit is given.
const DefaultTraceBuffer = 16

// StoreConfig configures a TraceStore.
type StoreConfig struct {
	// Limit bounds the ring of kept traces (< 1 uses DefaultTraceBuffer).
	Limit int
	// SampleRate is the head-sampling rate: the fraction of traces kept
	// regardless of outcome. 0 means unset and defaults to 1 (keep all);
	// negative means tail-only (keep nothing on the head decision, only
	// errored/slow traces survive); values above 1 clamp to 1.
	SampleRate float64
	// SlowThreshold tail-keeps any trace at least this slow (0 disables
	// the slow keep).
	SlowThreshold time.Duration
	// Seed seeds the id generator. 0 draws a random seed; a fixed seed
	// replays the same id sequence, making the head-sampled set
	// deterministic for chaos runs.
	Seed int64
	// Metrics receives nimble_traces_kept_total{reason} and
	// nimble_traces_dropped_total (nil records nowhere).
	Metrics *Registry
}

// TraceStore retains completed traces for the management surface
// (/debug/traces) and feeds the exporter pipeline. Each trace is written
// into an arena the store hands out at NewRoot; a kept trace's arena
// stays in a fixed ring until a newer one evicts it, and an evicted or
// dropped arena goes back to a free list for the next NewRoot. Readers
// get copies built from the arena. Safe for concurrent use; nil-receiver
// safe so tracing stays optional.
type TraceStore struct {
	rate float64       // immutable: effective head-sampling rate [0,1]
	slow time.Duration // immutable: tail slow-keep threshold
	gen  *IDGen        // immutable: id generator for NewRoot

	keptHead *Counter // kept by the head coin flip alone
	keptErr  *Counter // tail-kept: the trace errored
	keptSlow *Counter // tail-kept: the trace was slow
	dropped  *Counter // completed but not kept

	queue atomic.Pointer[BatchQueue] // nil until SetExporter

	mu   sync.Mutex
	ring []keptTrace // guarded by mu; fixed length: the retention limit
	next int         // guarded by mu; the ring slot the next kept trace takes
	n    int         // guarded by mu; kept traces in the ring
	free []*arena    // guarded by mu; emptied arenas for NewRoot
}

// keptTrace is one ring slot: the arena, the generation it was kept
// under (a reader finding another generation skips the slot), and the
// trace id Find looks for.
type keptTrace struct {
	a   *arena
	gen uint32
	tid TraceID
}

// maxFreeArenas bounds the free list: arenas beyond it (released after a
// burst of concurrent queries) are left to the garbage collector.
const maxFreeArenas = 64

// NewTraceStore creates a store from cfg.
func NewTraceStore(cfg StoreConfig) *TraceStore {
	limit := cfg.Limit
	if limit < 1 {
		limit = DefaultTraceBuffer
	}
	rate := cfg.SampleRate
	switch {
	case rate == 0:
		rate = 1
	case rate < 0:
		rate = 0
	case rate > 1:
		rate = 1
	}
	// Without a registry the counters still count (Kept/Dropped work),
	// they just are not exposed on /metrics.
	counter := func(name string, labels ...string) *Counter {
		if cfg.Metrics == nil {
			return &Counter{}
		}
		return cfg.Metrics.Counter(name, labels...)
	}
	return &TraceStore{
		ring:     make([]keptTrace, limit),
		rate:     rate,
		slow:     cfg.SlowThreshold,
		gen:      NewIDGen(cfg.Seed),
		keptHead: counter("nimble_traces_kept_total", "reason", "head"),
		keptErr:  counter("nimble_traces_kept_total", "reason", "error"),
		keptSlow: counter("nimble_traces_kept_total", "reason", "slow"),
		dropped:  counter("nimble_traces_dropped_total"),
	}
}

// NewRoot starts a root span with ids drawn from the store's (possibly
// seeded) generator, joining tc when non-zero, in an arena from the
// store's free list (or a new one). On a nil store it degrades to
// NewRootSpan with the package default generator.
func (t *TraceStore) NewRoot(name string, tc TraceContext) SpanRef {
	if t == nil {
		return NewRootSpan(name, tc)
	}
	var a *arena
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		a = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if a == nil {
		a = &arena{ids: t.gen, store: t}
	}
	return a.begin(name, tc)
}

// HeadSampled reports the head-sampling decision for a trace id: a
// deterministic hash of the id against the configured rate, so every
// tier agrees without coordination.
func (t *TraceStore) HeadSampled(id TraceID) bool {
	if t == nil {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	return sampleHash(id) < t.rate
}

// SetExporter routes kept traces into q (nil detaches). The store does
// not own the queue's lifecycle; callers Close it on shutdown.
func (t *TraceStore) SetExporter(q *BatchQueue) {
	if t == nil {
		return
	}
	t.queue.Store(q)
}

// Record applies the sampling policy to a finished trace, given the
// handle NewRoot returned: tail keeps (an error attribute anywhere in
// the trace, then a slow root) win over the head decision; a kept trace
// enters the ring, evicting the oldest, and a copy of it goes to the
// exporter queue; a dropped or evicted trace's arena returns to the free
// list. A stale handle, or a trace recorded before, is ignored.
func (t *TraceStore) Record(root SpanRef) {
	if t == nil || root.a == nil {
		return
	}
	errored, dur, tid, ok := root.a.take(root.gen)
	if !ok {
		return
	}
	switch {
	case errored:
		t.keptErr.Inc()
	case t.slow > 0 && dur >= t.slow:
		t.keptSlow.Inc()
	case t.HeadSampled(tid):
		t.keptHead.Inc()
	default:
		t.dropped.Inc()
		t.release(root.a)
		return
	}
	// The exporter runs after the query, when the arena may be serving
	// another trace: it gets a copy built now.
	q := t.queue.Load()
	var tree *Span
	if q != nil {
		tree = root.a.build(root.gen, 0)
	}
	t.mu.Lock()
	evicted := t.ring[t.next]
	t.ring[t.next] = keptTrace{a: root.a, gen: root.gen, tid: tid}
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	if evicted.a != nil {
		t.release(evicted.a)
	}
	q.Enqueue(tree)
}

// release empties an arena, which ends every handle into its trace, and
// pools it when this store made it and it is not oversized.
func (t *TraceStore) release(a *arena) {
	if !a.reset() || a.store != t {
		return
	}
	t.mu.Lock()
	if len(t.free) < maxFreeArenas {
		t.free = append(t.free, a)
	}
	t.mu.Unlock()
}

// kept returns the ring's traces, most recent first.
func (t *TraceStore) kept() []keptTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]keptTrace, 0, t.n)
	for k := 1; k <= t.n; k++ {
		out = append(out, t.ring[(t.next-k+len(t.ring))%len(t.ring)])
	}
	return out
}

// Query filters a trace search.
type Query struct {
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// ErrOnly keeps only traces with an error attr somewhere in the tree.
	ErrOnly bool
	// Source keeps only traces that fetched the named source (a span
	// named "fetch <source>" or carrying a source attr).
	Source string
	// Limit bounds the result count (< 1 means all retained).
	Limit int
}

// Search returns the kept traces matching q, most recent first. The
// filters read the arenas; only the matches are built.
func (t *TraceStore) Search(q Query) []*Span {
	if t == nil {
		return nil
	}
	q.Source = strings.TrimSpace(q.Source)
	var out []*Span
	for _, k := range t.kept() {
		if sp := k.a.search(k.gen, q); sp != nil {
			out = append(out, sp)
			if q.Limit > 0 && len(out) >= q.Limit {
				break
			}
		}
	}
	return out
}

// search builds the trace when it is still generation gen and matches
// q (nil otherwise).
func (a *arena) search(gen uint32, q Query) *Span {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen != gen {
		return nil
	}
	if q.MinDuration > 0 && a.spans[0].duration() < q.MinDuration {
		return nil
	}
	if q.ErrOnly && !a.errored {
		return nil
	}
	if q.Source != "" && !a.touchesSourceLocked(q.Source) {
		return nil
	}
	return a.buildLocked(0)
}

// touchesSourceLocked reports whether the trace fetched the named source:
// a span named "fetch <source>" or carrying a source attribute.
func (a *arena) touchesSourceLocked(source string) bool {
	for i := range a.spans {
		if a.spans[i].fullName() == "fetch "+source {
			return true
		}
	}
	for i := range a.attrs {
		if a.attrs[i].key == "source" && a.attrs[i].value() == source {
			return true
		}
	}
	return false
}

// Find returns the kept trace with the given id, or nil.
func (t *TraceStore) Find(id TraceID) *Span {
	if t == nil || id.IsZero() {
		return nil
	}
	for _, k := range t.kept() {
		if k.tid == id {
			if sp := k.a.build(k.gen, 0); sp != nil {
				return sp
			}
		}
	}
	return nil
}

// Last returns up to n kept traces, most recent first (n < 1 means all
// retained) — the PR 1 Tracer surface, preserved for /debug/trace/last.
func (t *TraceStore) Last(n int) []*Span {
	return t.Search(Query{Limit: n})
}

// Len reports the number of kept traces currently retained.
func (t *TraceStore) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Kept reports how many traces have been kept, by reason, since start.
func (t *TraceStore) Kept() (head, err, slow int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.keptHead.Value(), t.keptErr.Value(), t.keptSlow.Value()
}

// Dropped reports how many completed traces the sampler discarded.
func (t *TraceStore) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Value()
}
