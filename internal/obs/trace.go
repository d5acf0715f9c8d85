package obs

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Event is one timestamped point annotation inside a span — the shape
// for things that happen during a span without deserving a child span of
// their own (admission enqueue/grant, retry backoff, drain progress).
type Event struct {
	Time  time.Time
	Name  string
	Attrs []Attr
}

// A trace is written and read through two types. Writers — the front
// end opening a root per request, and each layer under it (cluster
// admission and routing, engine unfolding/planning/prefetching,
// per-source fetch attempts, operator evaluation) hanging children off
// it — hold a SpanRef: a small value handle on a fixed record in the
// trace's arena. Readers get a *Span: an immutable tree built from the
// arena when someone asks for one (TraceStore.Search/Find/Last, the
// exporter when the trace is kept, SpanRef.Tree for ?profile=1). Every
// span carries the trace identity: the TraceID shared by the whole
// trace, its own SpanID, and its parent's SpanID, so traces survive
// flattening (exporters) and joining (logs, exemplars).

// Span is one timed step of a query's execution, as read: a node of an
// immutable copy of a trace. Its methods are safe on a nil receiver and
// for concurrent use.
type Span struct {
	name     string
	start    time.Time
	end      time.Time // zero: unfinished when the copy was built
	tid      TraceID
	sid      SpanID
	parent   SpanID // zero for a trace-local root
	attrs    []Attr
	events   []Event
	children []*Span
}

// TraceID returns the trace identity shared by the span's whole tree.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tid
}

// SpanID returns the span's own identity.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.sid
}

// ParentID returns the parent span's identity (zero for a root that
// started its own trace).
func (s *Span) ParentID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// Events returns a copy of the recorded events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	return append(make([]Event, 0, len(s.events)), s.events...)
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end-start, or the running duration if the span was
// unfinished when the copy was built.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the annotations, in the order they were set.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return append(make([]Attr, 0, len(s.attrs)), s.attrs...)
}

// Attr returns the last value recorded under key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return "", false
}

// Children returns a copy of the child spans, in the order they started.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return append(make([]*Span, 0, len(s.children)), s.children...)
}

// Walk visits the span and every descendant, depth first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.children {
		c.Walk(fn)
	}
}

// FindAll returns every span in the tree whose name has the prefix.
func (s *Span) FindAll(prefix string) []*Span {
	var out []*Span
	s.Walk(func(sp *Span) {
		if strings.HasPrefix(sp.name, prefix) {
			out = append(out, sp)
		}
	})
	return out
}

// spanJSON is the wire shape of a span: the trace schema documented in
// README.md's Observability section.
type spanJSON struct {
	Name       string            `json:"name"`
	TraceID    string            `json:"trace_id,omitempty"`
	SpanID     string            `json:"span_id,omitempty"`
	ParentID   string            `json:"parent_span_id,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []eventJSON       `json:"events,omitempty"`
	Children   []*Span           `json:"children,omitempty"`
}

type eventJSON struct {
	Name  string            `json:"name"`
	Time  time.Time         `json:"time"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	v := spanJSON{
		Name:       s.name,
		TraceID:    s.tid.String(),
		SpanID:     s.sid.String(),
		ParentID:   s.parent.String(),
		Start:      s.start,
		DurationMS: float64(s.Duration()) / float64(time.Millisecond),
		Children:   s.children,
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range s.events {
		ej := eventJSON{Name: ev.Name, Time: ev.Time}
		if len(ev.Attrs) > 0 {
			ej.Attrs = make(map[string]string, len(ev.Attrs))
			for _, a := range ev.Attrs {
				ej.Attrs[a.Key] = a.Value
			}
		}
		v.Events = append(v.Events, ej)
	}
	return json.Marshal(v)
}

// SpanRef is a writer's handle on one span: the trace's arena, the
// span's record in it, and the arena's generation when the trace began.
// It is a small value, copied freely and safe for concurrent use. The
// zero SpanRef is the no-op span: every method does nothing and returns
// zero values, so code instruments unconditionally and pays nothing when
// tracing is off. A handle whose arena has since been recycled for
// another trace is a no-op too: its generation no longer matches, so a
// late write (a fetch goroutine outliving its query) is dropped instead
// of landing in a stranger's trace.
type SpanRef struct {
	a   *arena
	i   int32
	gen uint32
}

// NewSpan starts a root span with a fresh trace identity, in an arena of
// its own (no store recycles it).
func NewSpan(name string) SpanRef {
	return NewRootSpan(name, TraceContext{})
}

// NewRootSpan starts a root span joining the given trace context: with a
// non-zero context the span adopts the incoming TraceID and records the
// remote caller's span as its parent (the W3C traceparent hop); with a
// zero context a fresh trace begins. The arena is its own; no store
// recycles it.
func NewRootSpan(name string, tc TraceContext) SpanRef {
	return (&arena{ids: defaultIDGen}).begin(name, tc)
}

// IsZero reports the no-op handle (tracing off).
func (r SpanRef) IsZero() bool { return r.a == nil }

// StartChild starts a child span named name; on the no-op handle it
// returns the no-op handle. The child shares the trace id and records
// this span as its parent.
func (r SpanRef) StartChild(name string) SpanRef {
	return r.a.startChild(r, name, "", -1)
}

// StartChildFor starts a child span named prefix+part ("fetch " and a
// source, "eval " and an operator); the name is joined only when read.
func (r SpanRef) StartChildFor(prefix, part string) SpanRef {
	return r.a.startChild(r, prefix, part, -1)
}

// StartChildAt starts a child span named name[i] ("attempt[2]",
// "rewrite[0]"); the name is formatted only when read.
func (r SpanRef) StartChildAt(name string, i int) SpanRef {
	return r.a.startChild(r, name, "", int32(i))
}

// SetAttr records a string annotation.
func (r SpanRef) SetAttr(key, value string) {
	r.a.setAttr(r, attrRecord{kind: attrString, key: key, str: value})
}

// SetInt records an integer annotation, formatted only when read.
func (r SpanRef) SetInt(key string, v int64) {
	r.a.setAttr(r, attrRecord{kind: attrInt, key: key, num: v})
}

// SetBool records a boolean annotation, formatted only when read.
func (r SpanRef) SetBool(key string, v bool) {
	at := attrRecord{kind: attrBool, key: key}
	if v {
		at.num = 1
	}
	r.a.setAttr(r, at)
}

// AddEvent records a timestamped point annotation with key/value pairs.
func (r SpanRef) AddEvent(name string, kv ...string) {
	r.a.addEvent(r, name, kv)
}

// Finish marks the span complete; the first call wins.
func (r SpanRef) Finish() {
	r.a.finish(r)
}

// TraceID returns the trace identity (zero on a no-op handle).
func (r SpanRef) TraceID() TraceID {
	tid, _, _ := r.a.identity(r)
	return tid
}

// SpanID returns the span's own identity.
func (r SpanRef) SpanID() SpanID {
	_, sid, _ := r.a.identity(r)
	return sid
}

// ParentID returns the parent span's identity (zero for a root that
// started its own trace).
func (r SpanRef) ParentID() SpanID {
	_, _, pid := r.a.identity(r)
	return pid
}

// TraceContext returns the span's identity in propagation form: inject
// it with FormatTraceparent so the next hop records this span as its
// parent.
func (r SpanRef) TraceContext() TraceContext {
	tid, sid, _ := r.a.identity(r)
	if tid.IsZero() {
		return TraceContext{}
	}
	return TraceContext{TraceID: tid, SpanID: sid, Sampled: true}
}

// Tree builds an immutable copy of the span and its descendants as
// written so far (nil on a no-op or recycled handle).
func (r SpanRef) Tree() *Span {
	if r.a == nil {
		return nil
	}
	return r.a.build(r.gen, r.i)
}

// arena holds every span of one trace as fixed records under one mutex:
// the spans in the order they started (a parent before its children),
// their attributes typed and unformatted in one slab, their events in
// another. A TraceStore recycles its arenas; each reuse bumps gen, which
// turns every handle into the previous trace into a no-op.
type arena struct {
	ids   *IDGen      // immutable: the generator span and trace ids come from
	store *TraceStore // immutable: the store that recycles the arena (nil: none)

	mu      sync.Mutex
	gen     uint32        // guarded by mu; bumped each time the arena is emptied
	tid     TraceID       // guarded by mu
	spans   []spanRecord  // guarded by mu
	attrs   []attrRecord  // guarded by mu; in the order they were set
	events  []eventRecord // guarded by mu
	kv      []string      // guarded by mu; the events' key/value pairs
	errored bool          // guarded by mu; some span set an "error" attribute
	taken   bool          // guarded by mu; TraceStore.Record has had the trace
}

// spanRecord is one span. A name with a variable part is kept as its
// static prefix plus that part, joined when read: name+part, or
// name[index] when index >= 0.
type spanRecord struct {
	name       string
	part       string
	index      int32
	parent     int32 // the parent's record; -1 for the root
	sid, pid   SpanID
	start, end time.Time
}

func (r *spanRecord) fullName() string {
	switch {
	case r.index >= 0:
		return r.name + "[" + strconv.Itoa(int(r.index)) + "]"
	case r.part != "":
		return r.name + r.part
	}
	return r.name
}

// duration is end-start, or the running duration if unfinished.
func (r *spanRecord) duration() time.Duration {
	if r.end.IsZero() {
		return time.Since(r.start)
	}
	return r.end.Sub(r.start)
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// attrRecord is one annotation, stored as written: a string, an int64,
// or a bool (num 1 or 0).
type attrRecord struct {
	span int32
	kind attrKind
	key  string
	str  string
	num  int64
}

func (a *attrRecord) value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// eventRecord is one event; its key/value pairs are kv[from:to] of the
// arena.
type eventRecord struct {
	span     int32
	from, to int32
	name     string
	time     time.Time
}

// Arena size past which a released arena is not pooled: one trace with
// thousands of spans should not pin that much memory for every later one.
const (
	maxPooledSpans = 256
	maxPooledAttrs = 1024
)

// begin writes the root record of a fresh trace into an empty arena.
// The span id is drawn before the trace id, the order seeded replays
// depend on.
func (a *arena) begin(name string, tc TraceContext) SpanRef {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	root := spanRecord{name: name, index: -1, parent: -1, sid: a.ids.SpanID(), start: now}
	if tc.TraceID.IsZero() {
		a.tid = a.ids.TraceID()
	} else {
		a.tid = tc.TraceID
		root.pid = tc.SpanID
	}
	a.spans = append(a.spans, root)
	return SpanRef{a: a, gen: a.gen}
}

func (a *arena) startChild(parent SpanRef, name, part string, index int32) SpanRef {
	if a == nil {
		return SpanRef{}
	}
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen != parent.gen {
		return SpanRef{}
	}
	a.spans = append(a.spans, spanRecord{name: name, part: part, index: index, parent: parent.i,
		sid: a.ids.SpanID(), pid: a.spans[parent.i].sid, start: now})
	return SpanRef{a: a, i: int32(len(a.spans) - 1), gen: a.gen}
}

func (a *arena) setAttr(r SpanRef, at attrRecord) {
	if a == nil {
		return
	}
	at.span = r.i
	a.mu.Lock()
	if a.gen == r.gen {
		a.attrs = append(a.attrs, at)
		if at.key == "error" {
			a.errored = true
		}
	}
	a.mu.Unlock()
}

func (a *arena) addEvent(r SpanRef, name string, kv []string) {
	if a == nil {
		return
	}
	now := time.Now()
	a.mu.Lock()
	if a.gen == r.gen {
		from := int32(len(a.kv))
		a.kv = append(a.kv, kv...)
		a.events = append(a.events, eventRecord{span: r.i, from: from, to: int32(len(a.kv)), name: name, time: now})
	}
	a.mu.Unlock()
}

func (a *arena) finish(r SpanRef) {
	if a == nil {
		return
	}
	now := time.Now()
	a.mu.Lock()
	if a.gen == r.gen && a.spans[r.i].end.IsZero() {
		a.spans[r.i].end = now
	}
	a.mu.Unlock()
}

func (a *arena) identity(r SpanRef) (tid TraceID, sid, pid SpanID) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen != r.gen {
		return
	}
	return a.tid, a.spans[r.i].sid, a.spans[r.i].pid
}

// take hands a finished trace to the sampler once: it reports whether
// any span errored, the root's duration and the trace id, and false when
// the handle is stale or the trace was taken before (so a trace recorded
// twice cannot enter the ring, and later the free list, twice).
func (a *arena) take(gen uint32) (errored bool, dur time.Duration, tid TraceID, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen != gen || a.taken {
		return false, 0, TraceID{}, false
	}
	a.taken = true
	return a.errored, a.spans[0].duration(), a.tid, true
}

// reset empties the arena for its next trace and bumps its generation,
// so every handle into the trace it held becomes a no-op. It reports
// whether the arena is small enough to pool.
func (a *arena) reset() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gen++
	clear(a.spans)
	clear(a.attrs)
	clear(a.events)
	clear(a.kv)
	a.spans, a.attrs, a.events, a.kv = a.spans[:0], a.attrs[:0], a.events[:0], a.kv[:0]
	a.tid, a.errored, a.taken = TraceID{}, false, false
	return cap(a.spans) <= maxPooledSpans && cap(a.attrs) <= maxPooledAttrs
}

// build copies the span at record top and its descendants out of the
// arena (nil when gen is stale).
func (a *arena) build(gen uint32, top int32) *Span {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen != gen {
		return nil
	}
	return a.buildLocked(top)
}

// buildLocked is build with a.mu held and gen checked. Records after
// top that do not descend from it stay out.
func (a *arena) buildLocked(top int32) *Span {
	n := int32(len(a.spans)) - top
	nodes := make([]*Span, n)
	slab := make([]Span, n)
	for j := int32(0); j < n; j++ {
		r := &a.spans[top+j]
		var p *Span
		if j > 0 {
			if r.parent < top || nodes[r.parent-top] == nil {
				continue
			}
			p = nodes[r.parent-top]
		}
		s := &slab[j]
		*s = Span{name: r.fullName(), start: r.start, end: r.end, tid: a.tid, sid: r.sid, parent: r.pid}
		nodes[j] = s
		if p != nil {
			p.children = append(p.children, s)
		}
	}
	in := func(span int32) *Span {
		if span < top {
			return nil
		}
		return nodes[span-top]
	}
	for i := range a.attrs {
		at := &a.attrs[i]
		if s := in(at.span); s != nil {
			s.attrs = append(s.attrs, Attr{Key: at.key, Value: at.value()})
		}
	}
	for _, ev := range a.events {
		s := in(ev.span)
		if s == nil {
			continue
		}
		e := Event{Time: ev.time, Name: ev.name}
		kv := a.kv[ev.from:ev.to]
		for i := 0; i+1 < len(kv); i += 2 {
			e.Attrs = append(e.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
		}
		s.events = append(s.events, e)
	}
	return nodes[0]
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span to a context for downstream layers.
func ContextWithSpan(ctx context.Context, r SpanRef) context.Context {
	if r.a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, r)
}

// FromContext returns the span attached to ctx, or the no-op handle.
func FromContext(ctx context.Context) SpanRef {
	if ctx == nil {
		return SpanRef{}
	}
	r, _ := ctx.Value(spanCtxKey{}).(SpanRef)
	return r
}

// StartSpan starts a child of the context span, returning a context
// carrying the child. With no span in ctx it returns ctx and the no-op
// handle: the whole call chain degrades to no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, SpanRef) {
	parent := FromContext(ctx)
	if parent.a == nil {
		return ctx, SpanRef{}
	}
	c := parent.StartChild(name)
	return ContextWithSpan(ctx, c), c
}
