// Trace exporters: the egress half of the tracing pipeline. Kept traces
// flow from the TraceStore into a bounded BatchQueue, each as a *Span
// copy built from its arena when it was kept (export runs after the
// query, when the arena may already hold another trace); a background
// worker drains the queue in batches into a pluggable Exporter. The
// queue never blocks the query path — when full it drops the trace and
// counts the drop (nimble_trace_export_dropped_total), the standard
// backpressure posture for telemetry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// Exporter receives batches of finished root spans. Implementations are
// called from a single worker goroutine, never concurrently.
type Exporter interface {
	// ExportBatch delivers one batch; an error counts against
	// nimble_trace_export_errors_total and the batch is not retried.
	ExportBatch(batch []*Span) error
}

// Default queue geometry: the queue absorbs bursts of kept traces, the
// batch size bounds per-export work.
const (
	DefaultExportQueue = 256
	DefaultExportBatch = 16
)

// BatchQueue is the bounded buffer between the TraceStore and an
// Exporter. Enqueue is non-blocking (drop-with-counter when full); a
// single worker goroutine batches and exports. Nil-receiver safe.
type BatchQueue struct {
	exp       Exporter
	batchSize int // immutable after NewBatchQueue

	ch      chan *Span         // the bounded buffer
	flushCh chan chan struct{} // Flush handshakes with the worker
	done    chan struct{}      // closed when the worker exits
	wg      sync.WaitGroup
	once    sync.Once // guards Close

	mu     sync.RWMutex
	closed bool // guarded by mu; bars Enqueue from a closed ch

	exported *Counter // spans successfully handed to the exporter
	drops    *Counter // spans dropped on a full queue
	errs     *Counter // failed ExportBatch calls
}

// NewBatchQueue starts the export worker. queueSize and batchSize < 1
// use the defaults; reg (may be nil) receives the export counters.
func NewBatchQueue(exp Exporter, queueSize, batchSize int, reg *Registry) *BatchQueue {
	if queueSize < 1 {
		queueSize = DefaultExportQueue
	}
	if batchSize < 1 {
		batchSize = DefaultExportBatch
	}
	q := &BatchQueue{
		exp:       exp,
		batchSize: batchSize,
		ch:        make(chan *Span, queueSize),
		flushCh:   make(chan chan struct{}),
		done:      make(chan struct{}),
		exported:  reg.Counter("nimble_trace_export_total"),
		drops:     reg.Counter("nimble_trace_export_dropped_total"),
		errs:      reg.Counter("nimble_trace_export_errors_total"),
	}
	q.wg.Add(1)
	go q.run()
	return q
}

// Enqueue offers a trace to the export worker; a full queue drops it
// (and a closed queue discards it silently).
func (q *BatchQueue) Enqueue(root *Span) {
	if q == nil || root == nil {
		return
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return
	}
	select {
	case q.ch <- root:
	default:
		q.drops.Inc()
	}
}

// Flush blocks until every trace enqueued before the call has been
// exported (no-op after Close).
func (q *BatchQueue) Flush() {
	if q == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case q.flushCh <- ack:
		<-ack
	case <-q.done:
	}
}

// Close flushes the queue and stops the worker. Safe to call twice.
func (q *BatchQueue) Close() {
	if q == nil {
		return
	}
	q.once.Do(func() {
		q.mu.Lock()
		q.closed = true
		close(q.ch)
		q.mu.Unlock()
		q.wg.Wait()
	})
}

// Dropped reports how many traces were dropped on a full queue.
func (q *BatchQueue) Dropped() int64 {
	if q == nil {
		return 0
	}
	return q.drops.Value()
}

// run is the worker: collect a batch (the blocking head plus whatever
// else is already queued, up to batchSize), export, repeat.
func (q *BatchQueue) run() {
	defer q.wg.Done()
	defer close(q.done)
	for {
		select {
		case sp, ok := <-q.ch:
			if !ok {
				q.drain()
				return
			}
			q.export(q.collect(sp))
		case ack := <-q.flushCh:
			q.drain()
			close(ack)
		}
	}
}

// collect fills a batch starting from head without blocking.
func (q *BatchQueue) collect(head *Span) []*Span {
	batch := []*Span{head}
	for len(batch) < q.batchSize {
		select {
		case sp, ok := <-q.ch:
			if !ok {
				return batch
			}
			batch = append(batch, sp)
		default:
			return batch
		}
	}
	return batch
}

// drain exports everything currently queued.
func (q *BatchQueue) drain() {
	for {
		select {
		case sp, ok := <-q.ch:
			if !ok {
				return
			}
			q.export(q.collect(sp))
		default:
			return
		}
	}
}

func (q *BatchQueue) export(batch []*Span) {
	if len(batch) == 0 {
		return
	}
	if err := q.exp.ExportBatch(batch); err != nil {
		q.errs.Inc()
		return
	}
	q.exported.Add(int64(len(batch)))
}

// MemExporter retains exported batches in memory — the test double.
type MemExporter struct {
	mu      sync.Mutex
	batches [][]*Span // guarded by mu
}

// ExportBatch implements Exporter.
func (m *MemExporter) ExportBatch(batch []*Span) error {
	cp := make([]*Span, len(batch))
	copy(cp, batch)
	m.mu.Lock()
	m.batches = append(m.batches, cp)
	m.mu.Unlock()
	return nil
}

// Batches returns a copy of the exported batches.
func (m *MemExporter) Batches() [][]*Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]*Span, len(m.batches))
	copy(out, m.batches)
	return out
}

// Spans returns every exported root span in export order.
func (m *MemExporter) Spans() []*Span {
	var out []*Span
	for _, b := range m.Batches() {
		out = append(out, b...)
	}
	return out
}

// FileExporter writes OTLP-style JSON, one ExportTraceServiceRequest
// object per batch per line (the OTLP file-exporter convention), with
// span trees flattened to parentSpanId links. Its target is offline
// inspection and replay into OTLP tooling, not a live OTLP endpoint.
type FileExporter struct {
	service string
	mu      sync.Mutex
	w       io.Writer // guarded by mu
	c       io.Closer // guarded by mu; nil when wrapping a plain writer
}

// NewFileExporter appends to path (creating it if needed).
func NewFileExporter(path, service string) (*FileExporter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	return &FileExporter{service: service, w: f, c: f}, nil
}

// NewWriterExporter wraps an existing writer (tests, stdout).
func NewWriterExporter(w io.Writer, service string) *FileExporter {
	return &FileExporter{service: service, w: w}
}

// otlp wire shapes (the subset the file format needs).
type otlpKV struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
	} `json:"value"`
}

func otlpAttr(k, v string) otlpKV {
	a := otlpKV{Key: k}
	a.Value.StringValue = v
	return a
}

type otlpEvent struct {
	TimeUnixNano string   `json:"timeUnixNano"`
	Name         string   `json:"name"`
	Attributes   []otlpKV `json:"attributes,omitempty"`
}

type otlpSpan struct {
	TraceID           string      `json:"traceId"`
	SpanID            string      `json:"spanId"`
	ParentSpanID      string      `json:"parentSpanId,omitempty"`
	Name              string      `json:"name"`
	StartTimeUnixNano string      `json:"startTimeUnixNano"`
	EndTimeUnixNano   string      `json:"endTimeUnixNano"`
	Attributes        []otlpKV    `json:"attributes,omitempty"`
	Events            []otlpEvent `json:"events,omitempty"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

func unixNano(sp *Span, end bool) string {
	t := sp.Start()
	if end {
		t = t.Add(sp.Duration())
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

func flattenOTLP(root *Span, out *[]otlpSpan) {
	root.Walk(func(sp *Span) {
		o := otlpSpan{
			TraceID:           sp.TraceID().String(),
			SpanID:            sp.SpanID().String(),
			ParentSpanID:      sp.ParentID().String(),
			Name:              sp.Name(),
			StartTimeUnixNano: unixNano(sp, false),
			EndTimeUnixNano:   unixNano(sp, true),
		}
		for _, a := range sp.Attrs() {
			o.Attributes = append(o.Attributes, otlpAttr(a.Key, a.Value))
		}
		for _, ev := range sp.Events() {
			oe := otlpEvent{
				TimeUnixNano: strconv.FormatInt(ev.Time.UnixNano(), 10),
				Name:         ev.Name,
			}
			for _, a := range ev.Attrs {
				oe.Attributes = append(oe.Attributes, otlpAttr(a.Key, a.Value))
			}
			o.Events = append(o.Events, oe)
		}
		*out = append(*out, o)
	})
}

// ExportBatch implements Exporter.
func (f *FileExporter) ExportBatch(batch []*Span) error {
	var spans []otlpSpan
	for _, root := range batch {
		flattenOTLP(root, &spans)
	}
	req := otlpRequest{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKV{otlpAttr("service.name", f.service)}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "nimble/obs"},
			Spans: spans,
		}},
	}}}

	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err = f.w.Write(line)
	return err
}

// Close closes the underlying file (no-op for writer-backed exporters).
func (f *FileExporter) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c == nil {
		return nil
	}
	err := f.c.Close()
	f.c = nil
	return err
}
