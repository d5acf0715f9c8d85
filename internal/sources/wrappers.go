package sources

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// ErrUnavailable marks a source that did not answer — offline, or no
// network connectivity (§3.4). The execution layer treats it as a
// partial-results event rather than a query failure.
var ErrUnavailable = errors.New("sources: source unavailable")

// ErrMalformed marks a source whose answer could not be used — a
// truncated transfer or a garbled document. Like unavailability it is
// transient (the next attempt may decode cleanly), so the execution
// layer retries it and, under PolicyPartial, degrades it to a flagged
// partial result instead of failing the query.
var ErrMalformed = errors.New("sources: malformed response")

// Transient reports whether err is a transient transport/decode
// failure — one a retry might cure and the partial-results policy may
// absorb. Anything else (bad SQL, unknown collection) is a deterministic
// request error that retrying cannot fix.
func Transient(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrMalformed)
}

// XMLSource is a source over a parsed XML document. It cannot evaluate
// queries (Capabilities zero), so every fetch returns the document.
type XMLSource struct {
	*catalog.StaticSource
}

// NewXMLSource parses the document text and wraps it as a source.
func NewXMLSource(name, xmlText string) (*XMLSource, error) {
	doc, err := xmlparse.ParseString(xmlText)
	if err != nil {
		return nil, err
	}
	return &XMLSource{StaticSource: catalog.NewStaticSource(name, doc)}, nil
}

// NewCSVSource reads CSV data (first record is the header) and exposes
// it as a document <name><row><col>…</col></row>…</name> — the flat-file
// legacy feed common in the paper's customer scenarios.
func NewCSVSource(name string, r io.Reader) (*catalog.StaticSource, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sources: csv %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("sources: csv %s: empty input", name)
	}
	header := records[0]
	for i := range header {
		header[i] = strings.TrimSpace(strings.ToLower(header[i]))
	}
	root := &xmldm.Node{Name: name}
	for _, rec := range records[1:] {
		row := &xmldm.Node{Name: "row", Parent: root}
		for i, field := range rec {
			if i >= len(header) {
				break
			}
			c := &xmldm.Node{Name: header[i], Parent: row}
			if field != "" {
				c.Children = append(c.Children, xmldm.String(field))
			}
			row.Children = append(row.Children, c)
		}
		root.Children = append(root.Children, row)
	}
	xmldm.Finalize(root)
	return catalog.NewStaticSource(name, root), nil
}

// NetworkSim wraps a source with simulated transport behaviour: a fixed
// per-request latency, per-byte transfer time, and an availability
// probability. It substitutes for the WAN and flaky back ends of the
// paper's deployments: "they may be offline, or network connectivity may
// not be available" (§3.4).
type NetworkSim struct {
	inner catalog.Source

	// Latency is the per-request round-trip added to every fetch.
	Latency time.Duration
	// PerKB is added per kilobyte moved.
	PerKB time.Duration
	// Availability is the probability a request succeeds (1.0 = always).
	Availability float64
	// Sleep actually sleeps when true; otherwise the simulated time is
	// only accounted (fast benches use accounting, latency-sensitive
	// experiments use real sleeps).
	Sleep bool
	// SleepFn, when set, replaces the real wall-clock sleep — tests
	// inject a fake clock here so latency behaviour is exercised without
	// wall-clock waits (set before first use; not synchronized).
	SleepFn func(ctx context.Context, d time.Duration) error

	mu        sync.Mutex
	rng       *rand.Rand
	simulated time.Duration
	calls     int
	failures  int
}

// NewNetworkSim wraps inner; seed fixes the availability coin flips so
// experiments are reproducible.
func NewNetworkSim(inner catalog.Source, latency time.Duration, availability float64, seed int64) *NetworkSim {
	return &NetworkSim{
		inner:        inner,
		Latency:      latency,
		Availability: availability,
		Sleep:        latency > 0,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Name implements catalog.Source.
func (n *NetworkSim) Name() string { return n.inner.Name() }

// Capabilities implements catalog.Source.
func (n *NetworkSim) Capabilities() catalog.Capabilities { return n.inner.Capabilities() }

// Inner returns the wrapped source.
func (n *NetworkSim) Inner() catalog.Source { return n.inner }

// Fetch implements catalog.Source with the simulated transport applied.
func (n *NetworkSim) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	return simulate(ctx, n, func() (*xmldm.Node, catalog.Cost, error) { return n.inner.Fetch(ctx, req) })
}

// FetchesRows implements catalog.RowFetcher: the simulation forwards rows
// when its inner source answers in them.
func (n *NetworkSim) FetchesRows() bool {
	_, ok := catalog.RowsOf(n.inner)
	return ok
}

// FetchRows implements catalog.RowFetcher with the same transport as
// Fetch: the same availability draw, and the delay of the same cost.
func (n *NetworkSim) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	return simulate(ctx, n, func() (*rdb.Result, catalog.Cost, error) { return catalog.FetchRows(ctx, n.inner, req) })
}

// simulate applies n's transport to one fetch of either form: the
// availability coin flip before it, and the delay its cost implies after.
func simulate[T any](ctx context.Context, n *NetworkSim, fetch func() (T, catalog.Cost, error)) (T, catalog.Cost, error) {
	var none T
	n.mu.Lock()
	n.calls++
	up := n.Availability >= 1 || n.rng.Float64() < n.Availability
	if !up {
		n.failures++
	}
	n.mu.Unlock()
	if !up {
		return none, catalog.Cost{}, fmt.Errorf("%w: %s", ErrUnavailable, n.inner.Name())
	}
	got, cost, err := fetch()
	if err != nil {
		return none, cost, err
	}
	delay := n.Latency + time.Duration(cost.BytesMoved/1024)*n.PerKB
	n.mu.Lock()
	n.simulated += delay
	n.mu.Unlock()
	if n.Sleep && delay > 0 {
		if err := n.doSleep(ctx, delay); err != nil {
			return none, cost, err
		}
	}
	return got, cost, nil
}

// doSleep waits for the simulated delay, honouring cancellation, via
// SleepFn when injected and the wall clock otherwise.
func (n *NetworkSim) doSleep(ctx context.Context, d time.Duration) error {
	if n.SleepFn != nil {
		return n.SleepFn(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats reports calls, simulated failures, and accumulated simulated
// transfer time.
func (n *NetworkSim) Stats() (calls, failures int, simulated time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls, n.failures, n.simulated
}

// Instrumented wraps a source and records raw source-side fetch metrics
// (distinct from the execution layer's nimble_fetch_* series, which also
// cover the local store and schema materialization): call counts by
// outcome, bytes moved, and I/O latency.
type Instrumented struct {
	inner catalog.Source
	reg   *obs.Registry
}

// Instrument wraps src so every fetch is recorded into reg. A nil
// registry returns src unchanged.
func Instrument(src catalog.Source, reg *obs.Registry) catalog.Source {
	if reg == nil {
		return src
	}
	return &Instrumented{inner: src, reg: reg}
}

// Name implements catalog.Source.
func (s *Instrumented) Name() string { return s.inner.Name() }

// Capabilities implements catalog.Source.
func (s *Instrumented) Capabilities() catalog.Capabilities { return s.inner.Capabilities() }

// Inner returns the wrapped source (the optimizer unwraps through this
// to reach relational descriptors).
func (s *Instrumented) Inner() catalog.Source { return s.inner }

// Fetch implements catalog.Source with metric recording.
func (s *Instrumented) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	start := time.Now()
	doc, cost, err := s.inner.Fetch(ctx, req)
	s.record(start, cost, err)
	return doc, cost, err
}

// FetchesRows implements catalog.RowFetcher: rows are forwarded when the
// inner source answers in them.
func (s *Instrumented) FetchesRows() bool {
	_, ok := catalog.RowsOf(s.inner)
	return ok
}

// FetchRows implements catalog.RowFetcher into the same series as Fetch.
func (s *Instrumented) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	start := time.Now()
	res, cost, err := catalog.FetchRows(ctx, s.inner, req)
	s.record(start, cost, err)
	return res, cost, err
}

// record adds one fetch that began at start to the source's series.
func (s *Instrumented) record(start time.Time, cost catalog.Cost, err error) {
	name := strings.ToLower(s.inner.Name())
	outcome := "ok"
	switch {
	case errors.Is(err, ErrUnavailable):
		outcome = "unavailable"
	case err != nil:
		outcome = "error"
	}
	s.reg.Counter("nimble_source_fetch_total", "source", name, "outcome", outcome).Inc()
	s.reg.Counter("nimble_source_bytes_total", "source", name).Add(int64(cost.BytesMoved))
	s.reg.Histogram("nimble_source_fetch_seconds", "source", name).Observe(time.Since(start).Seconds())
}

// Downed is a source that is always unavailable; experiments use it to
// model a hard-down backend.
type Downed struct {
	inner catalog.Source
}

// NewDowned wraps inner as permanently unavailable.
func NewDowned(inner catalog.Source) *Downed { return &Downed{inner: inner} }

// Name implements catalog.Source.
func (d *Downed) Name() string { return d.inner.Name() }

// Capabilities implements catalog.Source.
func (d *Downed) Capabilities() catalog.Capabilities { return d.inner.Capabilities() }

// Fetch implements catalog.Source and always fails with ErrUnavailable.
func (d *Downed) Fetch(context.Context, catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	return nil, catalog.Cost{}, fmt.Errorf("%w: %s", ErrUnavailable, d.inner.Name())
}
