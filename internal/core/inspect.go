// Query introspection: the active-query registry (pg_stat_activity
// style — what is running right now, and in which phase) and the
// slow-query log (a bounded ring of the slowest executions with their
// rendered EXPLAIN plans). Both are engine-level, shareable across
// instances, nil-safe, and safe for concurrent use so the management
// surface can poll them while queries run.
package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ActiveQuery is one in-flight query execution. The phase string tracks
// the lifecycle stage the query is currently in ("unfold", "plan",
// "prefetch", "eval", "construct", "sort").
type ActiveQuery struct {
	id    int64
	text  string
	start time.Time

	mu    sync.Mutex
	phase string // guarded by mu
}

// SetPhase records the lifecycle stage the query just entered (nil-safe,
// so untracked executions instrument unconditionally).
func (a *ActiveQuery) SetPhase(p string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.phase = p
	a.mu.Unlock()
}

// Phase returns the current lifecycle stage.
func (a *ActiveQuery) Phase() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.phase
}

// ActiveQueryInfo is the wire snapshot of one in-flight query.
type ActiveQueryInfo struct {
	ID        int64     `json:"id"`
	Query     string    `json:"query"`
	Phase     string    `json:"phase"`
	Start     time.Time `json:"start"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// ActiveRegistry tracks in-flight queries. One registry may be shared by
// several engine instances (the deployment-level /debug/queries view).
type ActiveRegistry struct {
	nextID atomic.Int64

	mu     sync.Mutex
	active map[int64]*ActiveQuery // guarded by mu
}

// NewActiveRegistry creates an empty registry.
func NewActiveRegistry() *ActiveRegistry {
	return &ActiveRegistry{active: make(map[int64]*ActiveQuery)}
}

// Register tracks a starting query and returns its handle; Finish must
// be called when the query completes. A nil registry returns a nil
// handle (whose methods are no-ops).
func (r *ActiveRegistry) Register(text string) *ActiveQuery {
	if r == nil {
		return nil
	}
	a := &ActiveQuery{id: r.nextID.Add(1), text: text, start: time.Now(), phase: "start"}
	r.mu.Lock()
	r.active[a.id] = a
	r.mu.Unlock()
	return a
}

// Finish removes a completed query from the registry.
func (r *ActiveRegistry) Finish(a *ActiveQuery) {
	if r == nil || a == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, a.id)
	r.mu.Unlock()
}

// Len reports the number of in-flight queries.
func (r *ActiveRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Snapshot lists the in-flight queries, oldest first.
func (r *ActiveRegistry) Snapshot() []ActiveQueryInfo {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	qs := make([]*ActiveQuery, 0, len(r.active))
	for _, a := range r.active {
		qs = append(qs, a)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool {
		if !qs[i].start.Equal(qs[j].start) {
			return qs[i].start.Before(qs[j].start)
		}
		return qs[i].id < qs[j].id
	})
	out := make([]ActiveQueryInfo, len(qs))
	for i, a := range qs {
		out[i] = ActiveQueryInfo{
			ID:        a.id,
			Query:     a.text,
			Phase:     a.Phase(),
			Start:     a.start,
			ElapsedMS: float64(now.Sub(a.start)) / float64(time.Millisecond),
		}
	}
	return out
}

// SlowEntry is one retained slow-query record.
type SlowEntry struct {
	Query string `json:"query"`
	// TraceID joins the entry to its trace: when the execution was
	// traced and kept, /debug/traces and the structured log stream carry
	// the same id.
	TraceID    string    `json:"trace_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Tuples     int64     `json:"tuples"`
	Complete   bool      `json:"complete"`
	Error      string    `json:"error,omitempty"`
	// Plan is the rendered EXPLAIN ANALYZE tree of the execution.
	Plan string `json:"plan,omitempty"`
}

// SlowLog retains the N slowest queries at or above a threshold. Like
// the active registry it may be shared across engine instances.
type SlowLog struct {
	limit     int           // immutable after NewSlowLog
	threshold time.Duration // immutable after NewSlowLog

	mu      sync.Mutex
	entries []SlowEntry // guarded by mu; sorted slowest first
}

// DefaultSlowLogSize is the retention used when no limit is given.
const DefaultSlowLogSize = 16

// NewSlowLog creates a slow log keeping the limit slowest queries whose
// duration is at least threshold (limit < 1 uses DefaultSlowLogSize; a
// zero threshold retains the slowest of all queries).
func NewSlowLog(limit int, threshold time.Duration) *SlowLog {
	if limit < 1 {
		limit = DefaultSlowLogSize
	}
	return &SlowLog{limit: limit, threshold: threshold}
}

// Threshold reports the minimum duration recorded.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record offers one completed query to the log (nil-safe). Entries below
// the threshold, or faster than every retained entry of a full log, are
// dropped. plan, when not nil, renders e.Plan; it is called only for an
// entry the log keeps, and under the log's lock, so that no reader sees a
// kept entry without its plan.
func (l *SlowLog) Record(e SlowEntry, plan func() string) {
	if l == nil || e.DurationMS < float64(l.threshold)/float64(time.Millisecond) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].DurationMS < e.DurationMS
	})
	if i >= l.limit {
		return
	}
	if plan != nil {
		e.Plan = plan()
	}
	l.entries = append(l.entries, SlowEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	if len(l.entries) > l.limit {
		l.entries = l.entries[:l.limit]
	}
}

// Entries returns the retained entries, slowest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len reports the number of retained entries.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
