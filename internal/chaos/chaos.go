// Package chaos is the deterministic fault-injection harness: a source
// wrapper that makes sources flap, hang, slow down, and return
// truncated or garbled documents on a seeded, replayable schedule. It
// exists to *provoke* the conditions §3.4 promises the system handles
// ("sources may be offline, or network connectivity may not be
// available") so the resilience layer — retries, per-attempt timeouts,
// circuit breakers, partial results — can be proven rather than hoped:
// the soak harness replays a fault schedule and asserts every query
// succeeds, degrades to a correctly-flagged partial result, or fails
// cleanly, and that the same seed reproduces the identical completeness
// report byte for byte.
package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// Kind is one injected failure mode.
type Kind int

const (
	// Pass forwards the fetch untouched.
	Pass Kind = iota
	// Slow adds latency before forwarding.
	Slow
	// Unavailable fails with sources.ErrUnavailable (offline source).
	Unavailable
	// Malformed performs the fetch but delivers a truncated document (or
	// the first half of the rows) together with sources.ErrMalformed — a
	// transfer cut mid-stream.
	Malformed
	// Garbage fails with an opaque, non-transient error (a source-side
	// rejection retrying cannot cure).
	Garbage
	// Hang blocks until the context is cancelled — the failure mode
	// only a per-attempt timeout can bound.
	Hang
)

// String names the kind for stats and logs.
func (k Kind) String() string {
	switch k {
	case Slow:
		return "slow"
	case Unavailable:
		return "unavailable"
	case Malformed:
		return "malformed"
	case Garbage:
		return "garbage"
	case Hang:
		return "hang"
	}
	return "pass"
}

// Fault is the injected behaviour of a single fetch.
type Fault struct {
	Kind Kind
	// Latency is waited before the outcome is produced (Slow sets it;
	// any kind may carry it).
	Latency time.Duration
}

// Schedule decides the fault for the n-th fetch (0-based call index).
// Implementations must be deterministic functions of the call index so
// a replayed run injects the identical fault sequence.
type Schedule interface {
	Fault(call int) Fault
}

// Source wraps an inner source with fault injection. Faults are chosen
// by the schedule from a per-source call counter, so a sequential
// workload replays byte-identically. Safe for concurrent use (the
// counter is atomic under the lock; concurrent fetches to one source
// race only over which call index each receives).
type Source struct {
	inner catalog.Source
	sched Schedule
	sleep func(ctx context.Context, d time.Duration) error

	mu       sync.Mutex
	calls    int          // guarded by mu
	injected map[Kind]int // guarded by mu
}

// Wrap makes inner chaotic per the schedule (nil schedule passes
// everything through).
func Wrap(inner catalog.Source, sched Schedule) *Source {
	return &Source{inner: inner, sched: sched, injected: make(map[Kind]int)}
}

// WithSleep injects the latency sleeper (a FakeClock's Sleep makes Slow
// and Hang faults pass in virtual time, free of wall-clock time, where a
// deadline on the same clock bounds them) and returns the source for
// chaining.
func (s *Source) WithSleep(fn func(ctx context.Context, d time.Duration) error) *Source {
	s.sleep = fn
	return s
}

// Name implements catalog.Source.
func (s *Source) Name() string { return s.inner.Name() }

// Capabilities implements catalog.Source.
func (s *Source) Capabilities() catalog.Capabilities { return s.inner.Capabilities() }

// Inner returns the wrapped source (the optimizer unwraps through this
// to reach relational descriptors, so pushdown survives wrapping).
func (s *Source) Inner() catalog.Source { return s.inner }

// Stats reports the total fetch calls and the per-kind injection
// counts.
func (s *Source) Stats() (calls int, injected map[Kind]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int, len(s.injected))
	for k, v := range s.injected {
		out[k] = v
	}
	return s.calls, out
}

// Fetch implements catalog.Source with the scheduled fault applied.
func (s *Source) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	return inject(ctx, s, func() (*xmldm.Node, catalog.Cost, error) { return s.inner.Fetch(ctx, req) }, truncateDoc)
}

// FetchesRows implements catalog.RowFetcher: rows are forwarded when the
// inner source answers in them.
func (s *Source) FetchesRows() bool {
	_, ok := catalog.RowsOf(s.inner)
	return ok
}

// FetchRows implements catalog.RowFetcher under the same call counter and
// schedule as Fetch; a Malformed fault delivers the first half of the rows.
func (s *Source) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	return inject(ctx, s, func() (*rdb.Result, catalog.Cost, error) { return catalog.FetchRows(ctx, s.inner, req) }, truncateRows)
}

// inject applies the scheduled fault of the next call to one fetch of
// either form; truncate cuts a Malformed answer.
func inject[T any](ctx context.Context, s *Source, fetch func() (T, catalog.Cost, error), truncate func(T) T) (T, catalog.Cost, error) {
	var (
		f    Fault
		none T
	)
	s.mu.Lock()
	call := s.calls
	s.calls++
	if s.sched != nil {
		f = s.sched.Fault(call)
	}
	s.injected[f.Kind]++
	s.mu.Unlock()

	if f.Latency > 0 {
		if err := s.doSleep(ctx, f.Latency); err != nil {
			return none, catalog.Cost{}, err
		}
	}
	switch f.Kind {
	case Unavailable:
		return none, catalog.Cost{}, fmt.Errorf("%w: chaos: %s offline", sources.ErrUnavailable, s.inner.Name())
	case Garbage:
		return none, catalog.Cost{}, fmt.Errorf("chaos: %s returned garbage", s.inner.Name())
	case Hang:
		// The hang passes in the sleeper's time too, so a deadline on the
		// injected clock ends it.
		if err := s.doSleep(ctx, hangFor); err != nil {
			return none, catalog.Cost{}, err
		}
		<-ctx.Done()
		return none, catalog.Cost{}, ctx.Err()
	case Malformed:
		got, cost, err := fetch()
		if err != nil {
			return none, cost, err
		}
		// The transfer was cut mid-answer: deliver what made it over the
		// wire alongside the decode failure.
		return truncate(got), cost,
			fmt.Errorf("%w: chaos: %s response truncated", sources.ErrMalformed, s.inner.Name())
	}
	return fetch()
}

// hangFor is how long a Hang sleeps before it waits on its context
// alone: far past any attempt deadline.
const hangFor = 24 * time.Hour

// doSleep waits via the injected sleeper or the wall clock.
func (s *Source) doSleep(ctx context.Context, d time.Duration) error {
	if s.sleep != nil {
		return s.sleep(ctx, d)
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

// truncateDoc models a transfer cut mid-stream: a shallow root copy
// holding only the first half of the children. The shared child nodes
// keep their original parent pointers — the document is malformed by
// construction and always accompanied by ErrMalformed, never matched.
func truncateDoc(doc *xmldm.Node) *xmldm.Node {
	if doc == nil {
		return nil
	}
	cp := &xmldm.Node{Name: doc.Name, Attrs: doc.Attrs}
	cp.Children = doc.Children[:len(doc.Children)/2]
	return cp
}

// truncateRows is truncateDoc for a row answer: the first half of the
// rows, sharing the original's and read through its column map (always
// accompanied by ErrMalformed).
func truncateRows(res *rdb.Result) *rdb.Result {
	if res == nil {
		return nil
	}
	cut := *res
	cut.Rows = res.Rows[: len(res.Rows)/2 : len(res.Rows)/2]
	return &cut
}
