// Package obs is the observability subsystem of the integration product:
// the instrumentation half of §2.1's Management Tools, letting
// administrators "set up, monitor, and understand, the system" (§4). It
// has two faces: a lock-cheap metrics registry (counters, gauges, and
// latency histograms with quantile estimation, exposed in Prometheus
// text format), and a per-query span tracer threaded through
// context.Context so every query can return an execution profile. Spans
// are written as fixed records into a per-query arena that the trace
// store recycles, and built into a *Span tree only when read.
//
// Every metric method is nil-receiver safe, and the zero span handle is
// a no-op, so instrumented code never checks whether observability is
// configured:
//
//	var reg *obs.Registry // nil: observability off
//	reg.Counter("nimble_queries_total").Inc() // no-op, no panic
//	var sp obs.SpanRef // zero: tracing off
//	sp.StartChild("plan").Finish() // no-op
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the histogram bounds (seconds) used when no
// explicit bounds are given: exponential from 0.25ms to 10s, sized for
// query and fetch latencies.
var DefaultLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop; contention on gauges is rare).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// exemplar is one sampled observation pinned to a histogram bucket: the
// trace that produced the value, so a bad percentile links straight to
// a kept trace.
type exemplar struct {
	traceID string
	value   float64
}

// Histogram is a fixed-bucket latency histogram. Observations and reads
// are atomic per bucket; quantiles are estimated by linear interpolation
// within the bucket holding the target rank. Each bucket retains the
// last trace-tagged observation as an OpenMetrics-style exemplar.
type Histogram struct {
	bounds    []float64 // upper bounds, ascending; an implicit +Inf follows
	buckets   []atomic.Int64
	exemplars []atomic.Pointer[exemplar] // per-bucket last exemplar
	count     atomic.Int64
	sumNanos  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	h.ObserveExemplar(v, "")
}

// ObserveExemplar records one value and, when traceID is non-empty,
// pins it to the value's bucket as that bucket's exemplar.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(v * 1e9))
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// ExemplarTraceIDs returns the trace ids currently pinned to buckets,
// ascending by bucket.
func (h *Histogram) ExemplarTraceIDs() []string {
	if h == nil {
		return nil
	}
	var out []string
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, e.traceID)
		}
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNanos.Load()) / 1e9
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts.
// Values beyond the largest finite bound clamp to that bound; an empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // the +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	name   string
	labels string // rendered `k="v",k2="v2"`, empty when unlabeled
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

func (s *series) id() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// Registry holds metric families. Lookup takes a read lock; increments
// are atomic, so hot paths that cache the returned metric pointer pay no
// lock at all, and even uncached paths share only an RLock.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series    // guarded by mu
	kinds  map[string]metricKind // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		kinds:  make(map[string]metricKind),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry; components record here
// unless explicitly configured with their own.
func Default() *Registry { return defaultRegistry }

// renderLabels turns k,v pairs into `k="v",...` (insertion order kept;
// callers use a consistent order per metric).
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the series for name+labels, creating it via make when
// absent. A name already registered under a different kind yields a
// detached series (recorded nowhere) rather than a panic.
func (r *Registry) lookup(name string, kind metricKind, labels []string, make func() *series) *series {
	if r == nil {
		return nil
	}
	s := &series{name: name, labels: renderLabels(labels)}
	id := s.id()
	r.mu.RLock()
	got, ok := r.series[id]
	r.mu.RUnlock()
	if ok {
		return got
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.series[id]; ok {
		return got
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		return make() // kind conflict: usable but unregistered
	}
	r.kinds[name] = kind
	got = make()
	r.series[id] = got
	return got
}

// Counter returns (creating if needed) the counter for name and label
// k,v pairs. Nil registries return a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.lookup(name, kindCounter, labels, func() *series {
		return &series{name: name, labels: renderLabels(labels), c: &Counter{}}
	})
	if s == nil {
		return nil
	}
	return s.c
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.lookup(name, kindGauge, labels, func() *series {
		return &series{name: name, labels: renderLabels(labels), g: &Gauge{}}
	})
	if s == nil {
		return nil
	}
	return s.g
}

// GaugeFunc registers (or replaces) a gauge whose value is computed at
// exposition time — the idiom for in-flight counts and staleness ages.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	s := &series{name: name, labels: renderLabels(labels), gf: fn}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kindGauge {
		return
	}
	r.kinds[name] = kindGauge
	if got, ok := r.series[id]; ok {
		got.gf = fn
		got.g = nil
		return
	}
	r.series[id] = s
}

// Histogram returns (creating if needed) a latency histogram with the
// default buckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramWith(name, nil, labels...)
}

// HistogramWith returns (creating if needed) a histogram with explicit
// bucket upper bounds (ascending; an implicit +Inf bucket follows).
func (r *Registry) HistogramWith(name string, bounds []float64, labels ...string) *Histogram {
	s := r.lookup(name, kindHistogram, labels, func() *series {
		return &series{name: name, labels: renderLabels(labels), h: newHistogram(bounds)}
	})
	if s == nil {
		return nil
	}
	return s.h
}

// CounterOnce returns a handle on the counter for name and labels,
// resolved at its first call and held after it: the series appears on
// /metrics when first used, as a Counter call there would register it,
// but its labels are rendered once, not per call.
func (r *Registry) CounterOnce(name string, labels ...string) func() *Counter {
	return sync.OnceValue(func() *Counter { return r.Counter(name, labels...) })
}

// GaugeOnce is CounterOnce for a gauge.
func (r *Registry) GaugeOnce(name string, labels ...string) func() *Gauge {
	return sync.OnceValue(func() *Gauge { return r.Gauge(name, labels...) })
}

// HistogramOnce is CounterOnce for a histogram with the default buckets.
func (r *Registry) HistogramOnce(name string, labels ...string) func() *Histogram {
	return sync.OnceValue(func() *Histogram { return r.Histogram(name, labels...) })
}

// snapshot returns the series sorted by family name then series id.
func (r *Registry) snapshot() []*series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (text/plain; version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	kinds := make(map[string]metricKind, len(r.kinds))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	r.mu.RUnlock()

	lastFamily := ""
	for _, s := range r.snapshot() {
		if s.name != lastFamily {
			lastFamily = s.name
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, kinds[s.name]); err != nil {
				return err
			}
		}
		var err error
		switch {
		case s.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", s.id(), s.c.Value())
		case s.g != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", s.id(), formatFloat(s.g.Value()))
		case s.gf != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", s.id(), formatFloat(s.gf()))
		case s.h != nil:
			err = writeHistogram(w, s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, s *series) error {
	h := s.h
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if err := writeBucket(w, s, formatFloat(bound), cum, h.exemplars[i].Load()); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if err := writeBucket(w, s, "+Inf", cum, h.exemplars[len(h.bounds)].Load()); err != nil {
		return err
	}
	sep := ""
	if s.labels != "" {
		sep = "{" + s.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, sep, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, sep, h.Count())
	return err
}

// writeBucket renders one cumulative bucket line, appending the
// bucket's exemplar in OpenMetrics style (` # {trace_id="..."} value`)
// when one is pinned.
func writeBucket(w io.Writer, s *series, le string, cum int64, e *exemplar) error {
	labels := s.labels
	if labels != "" {
		labels += ","
	}
	if e != nil {
		_, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d # {trace_id=%q} %s\n",
			s.name, labels, le, cum, e.traceID, formatFloat(e.value))
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", s.name, labels, le, cum)
	return err
}

// Summary renders a compact human-readable dump: counters and gauges as
// single lines, histograms with count and p50/p95/p99 — the snapshot
// nimble-bench prints after a run.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range r.snapshot() {
		switch {
		case s.c != nil:
			fmt.Fprintf(&b, "%-12s %s = %d\n", "counter", s.id(), s.c.Value())
		case s.g != nil:
			fmt.Fprintf(&b, "%-12s %s = %s\n", "gauge", s.id(), formatFloat(s.g.Value()))
		case s.gf != nil:
			fmt.Fprintf(&b, "%-12s %s = %s\n", "gauge", s.id(), formatFloat(s.gf()))
		case s.h != nil:
			fmt.Fprintf(&b, "%-12s %s count=%d p50=%.3gms p95=%.3gms p99=%.3gms\n",
				"histogram", s.id(), s.h.Count(),
				s.h.Quantile(0.50)*1000, s.h.Quantile(0.95)*1000, s.h.Quantile(0.99)*1000)
		}
	}
	return b.String()
}
