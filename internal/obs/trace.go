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

// Span is one timed step of a query's execution. Spans form a tree: the
// front end opens a root span per request, and each layer (cluster
// admission and routing, engine unfolding/planning/prefetching,
// per-source fetch attempts, operator evaluation) hangs children off it.
// Every span carries the trace identity: the TraceID shared by the whole
// tree, its own SpanID, and its parent's SpanID, so traces survive
// flattening (exporters) and joining (logs, exemplars). All methods are
// safe on a nil receiver, so code instruments unconditionally and pays
// nothing when tracing is off, and safe for concurrent use (parallel
// prefetches add children from goroutines).
type Span struct {
	name   string
	start  time.Time
	tid    TraceID
	sid    SpanID
	parent SpanID // zero for a trace-local root
	gen    *IDGen // id generator children inherit (nil = package default)

	mu       sync.Mutex
	end      time.Time // guarded by mu
	attrs    []Attr    // guarded by mu
	events   []Event   // guarded by mu
	children []*Span   // guarded by mu
}

// NewSpan starts a root span with a fresh trace identity.
func NewSpan(name string) *Span {
	return NewRootSpan(name, TraceContext{})
}

// NewRootSpan starts a root span joining the given trace context: with a
// non-zero context the span adopts the incoming TraceID and records the
// remote caller's span as its parent (the W3C traceparent hop); with a
// zero context a fresh trace begins.
func NewRootSpan(name string, tc TraceContext) *Span {
	return newRootSpan(name, tc, defaultIDGen)
}

// newRootSpan is NewRootSpan with an explicit id generator (the
// TraceStore's, when the store owns id assignment).
func newRootSpan(name string, tc TraceContext, gen *IDGen) *Span {
	if gen == nil {
		gen = defaultIDGen
	}
	s := &Span{name: name, start: time.Now(), gen: gen, sid: gen.SpanID()}
	if tc.TraceID.IsZero() {
		s.tid = gen.TraceID()
	} else {
		s.tid = tc.TraceID
		s.parent = tc.SpanID
	}
	return s
}

// StartChild starts and attaches a child span; on a nil receiver it
// returns nil (the no-op span). The child shares the trace id and
// records this span as its parent.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	gen := s.gen
	if gen == nil {
		gen = defaultIDGen
	}
	c := &Span{name: name, start: time.Now(), tid: s.tid, sid: gen.SpanID(), parent: s.sid, gen: gen}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
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

// TraceContext returns the span's identity in propagation form: inject
// it with FormatTraceparent so the next hop records this span as its
// parent.
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.tid, SpanID: s.sid, Sampled: true}
}

// AddEvent records a timestamped point annotation with key/value pairs.
func (s *Span) AddEvent(name string, kv ...string) {
	if s == nil {
		return
	}
	ev := Event{Time: time.Now(), Name: name}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// SetAttr records a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt records an integer annotation.
func (s *Span) SetInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetBool records a boolean annotation.
func (s *Span) SetBool(key string, v bool) {
	s.SetAttr(key, strconv.FormatBool(v))
}

// Finish marks the span complete; the first call wins.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
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

// Duration returns end-start, or the running duration if unfinished.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Attrs returns a copy of the annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Attr returns the last value recorded under key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return "", false
}

// Children returns a copy of the child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Walk visits the span and every descendant, depth first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// FindAll returns every span in the tree whose name has the prefix.
func (s *Span) FindAll(prefix string) []*Span {
	var out []*Span
	s.Walk(func(sp *Span) {
		if strings.HasPrefix(sp.Name(), prefix) {
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
		Name:       s.Name(),
		TraceID:    s.TraceID().String(),
		SpanID:     s.SpanID().String(),
		ParentID:   s.ParentID().String(),
		Start:      s.Start(),
		DurationMS: float64(s.Duration()) / float64(time.Millisecond),
		Children:   s.Children(),
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		v.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range s.Events() {
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

type spanCtxKey struct{}

// ContextWithSpan attaches a span to a context for downstream layers.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// FromContext returns the span attached to ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context span, returning a context
// carrying the child. With no span in ctx it returns ctx and nil: the
// whole call chain degrades to no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return ContextWithSpan(ctx, c), c
}
