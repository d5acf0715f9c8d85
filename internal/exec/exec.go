// Package exec is the runtime of the integration engine: it resolves
// plan leaves to source fetches (in parallel), applies the availability
// policy, consults the local materialized store before going remote, and
// produces the completeness report that lets the system "behave
// intelligently ... by providing partial results, and indicating to the
// user that the results were not complete" (§3.4).
package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// Policy selects the behaviour when a source does not answer.
type Policy int

const (
	// PolicyFail aborts the query on the first unavailable source.
	PolicyFail Policy = iota
	// PolicyPartial answers from the sources that responded and flags
	// the result as incomplete.
	PolicyPartial
)

// String names the policy as used in query options.
func (p Policy) String() string {
	if p == PolicyPartial {
		return "partial"
	}
	return "fail"
}

// SourceStatus records one source's outcome during a query.
type SourceStatus struct {
	Source string
	Err    string // empty when the source answered
	Rows   int
	Bytes  int
	Local  bool // answered from the local materialized store
	// Retries counts fetch attempts beyond the first across this query
	// (transient failures that were retried with backoff).
	Retries int
	// Breaker notes circuit-breaker involvement: "open" when the fetch
	// was skipped fail-fast, "half-open" when it was the probe.
	Breaker string
}

// Completeness is the per-query report of which sources answered.
type Completeness struct {
	Complete bool
	Statuses []SourceStatus
}

// FailedSources lists the sources that did not answer.
func (c Completeness) FailedSources() []string {
	var out []string
	for _, s := range c.Statuses {
		if s.Err != "" {
			out = append(out, s.Source)
		}
	}
	return out
}

// Runner creates Access instances for query executions.
type Runner struct {
	Cat *catalog.Catalog
	// Materialize computes a mediated schema's document for fallback
	// matching (the engine wires this to itself); it shares the query's
	// Access so source failures during materialization show up in the
	// same completeness report.
	Materialize func(ctx context.Context, schema string, a *Access) (*xmldm.Node, error)
	// Local, if set, is consulted before any remote fetch; it returns a
	// locally materialized document for the source/schema if one is
	// fresh enough to use (§3.3's "the query processor knows to make use
	// of local copies of data when available").
	Local func(source string, req catalog.Request) (*xmldm.Node, bool)
	// Metrics, if set, receives per-source fetch counters and latency
	// histograms (nil disables recording; all metric calls are nil-safe).
	Metrics *obs.Registry
	// Resilience tunes per-attempt timeouts and retry/backoff for
	// remote fetches; the zero value disables both.
	Resilience Resilience
	// Breakers, if set, quarantines persistently failing sources behind
	// per-source circuit breakers; one set may be shared across several
	// runners (every engine instance of a deployment).
	Breakers *BreakerSet
	// Clock abstracts time for attempt deadlines, backoff sleeps and
	// jitter; nil uses the real clock (tests inject fake time for
	// determinism).
	Clock Clock

	seriesMu sync.RWMutex
	series   map[string]*sourceSeries // guarded by seriesMu; by source name
}

// sourceSeries are one source's fetch series, their label (the source
// name, lowered) rendered once. Each is resolved at its first use, so it
// appears on /metrics only once observed.
type sourceSeries struct {
	ok, unavailable, failed func() *obs.Counter // nimble_fetch_total by outcome
	local, retries          func() *obs.Counter
	seconds, remote         func() *obs.Histogram
	materialize             func() *obs.Histogram // labelled schema, not source
}

// seriesFor returns the source's fetch series, made at its first fetch.
func (r *Runner) seriesFor(source string) *sourceSeries {
	r.seriesMu.RLock()
	s := r.series[source]
	r.seriesMu.RUnlock()
	if s != nil {
		return s
	}
	m, label := r.Metrics, strings.ToLower(source)
	s = &sourceSeries{
		ok:          m.CounterOnce("nimble_fetch_total", "source", label, "outcome", "ok"),
		unavailable: m.CounterOnce("nimble_fetch_total", "source", label, "outcome", "unavailable"),
		failed:      m.CounterOnce("nimble_fetch_total", "source", label, "outcome", "error"),
		local:       m.CounterOnce("nimble_fetch_local_total", "source", label),
		retries:     m.CounterOnce("nimble_fetch_retries_total", "source", label),
		seconds:     m.HistogramOnce("nimble_fetch_seconds", "source", label),
		remote:      m.HistogramOnce("nimble_remote_fetch_seconds", "source", label),
		materialize: m.HistogramOnce("nimble_materialize_seconds", "schema", label),
	}
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	if got := r.series[source]; got != nil {
		return got
	}
	if r.series == nil {
		r.series = map[string]*sourceSeries{}
	}
	r.series[source] = s
	return s
}

// clock returns the runner's clock, defaulting to real time.
func (r *Runner) clock() Clock {
	if r.Clock != nil {
		return r.Clock
	}
	return RealClock
}

// breakerFor returns the source's breaker, or nil when breakers are
// disabled.
func (r *Runner) breakerFor(source string) *Breaker {
	if r.Breakers == nil {
		return nil
	}
	return r.Breakers.For(source)
}

// Access is the per-execution fetch state: it memoizes fetches (a plan
// may reference one source several times), applies the policy, and
// accumulates the completeness report. Safe for concurrent use.
type Access struct {
	runner *Runner
	ctx    context.Context
	policy Policy

	mu       sync.Mutex
	memo     map[string]*fetchResult  // guarded by mu
	statuses map[string]*SourceStatus // guarded by mu
	timings  map[string]*fetchTiming  // guarded by mu
}

// fetchTiming accumulates per-source fetch wall time for EXPLAIN
// attribution (distinct fetches to the same source aggregate). reads
// counts logical read-throughs — every Prefetch, Roots or Rows read,
// including ones served from the memo when an operator re-Opens its
// child; a Rows call that declines a document is not one — while
// fetches counts only physical source fetches, so attribution never
// double-counts a re-read as new source work.
type fetchTiming struct {
	fetches int
	reads   int
	nanos   int64
}

// payload is what one fetch delivers: a document, or — for a native
// request to a registered source that answers in rows — the rows of its
// result, whose document is rendered only when someone asks for it.
type payload struct {
	doc  *xmldm.Node
	rows *rdb.Result
	// root names a row answer's export: the source's own name.
	root string
}

type fetchResult struct {
	once sync.Once
	payload
	err error
	// render renders a row answer's export into doc, once.
	render sync.Once
}

// document is the entry's document; a row answer renders its export on
// the first call, the one every later caller shares.
func (fr *fetchResult) document(req catalog.Request) *xmldm.Node {
	fr.render.Do(func() {
		if fr.rows != nil {
			fr.doc = sources.RowsDocument(fr.root, req, fr.rows)
		}
	})
	return fr.doc
}

// NewAccess creates the fetch state for one query execution.
func (r *Runner) NewAccess(ctx context.Context, policy Policy) *Access {
	return &Access{
		runner:   r,
		ctx:      ctx,
		policy:   policy,
		memo:     make(map[string]*fetchResult),
		statuses: make(map[string]*SourceStatus),
		timings:  make(map[string]*fetchTiming),
	}
}

func specKey(source string, req catalog.Request) string {
	return strings.ToLower(source) + "\x00" + req.Native + "\x00" + req.Collection
}

// Roots implements opt.Access: it fetches (memoized) and converts the
// result document into match roots. Under PolicyPartial an unavailable
// source yields zero roots and a completeness mark instead of an error.
func (a *Access) Roots(source string, req catalog.Request) ([]xmldm.Value, error) {
	fr := a.fetch(source, req)
	a.read(source)
	if fr.err != nil {
		return nil, a.absorb(fr.err)
	}
	doc := fr.document(req)
	if doc == nil {
		return nil, nil
	}
	return []xmldm.Value{doc}, nil
}

// Rows is the row form of Roots: the result rows of a native request
// whose source answered in rows (nil when a failure was absorbed under
// PolicyPartial). ok is false, and nothing is read, when the fetch was
// answered with a document: Roots serves that.
func (a *Access) Rows(source string, req catalog.Request) (res *rdb.Result, ok bool, err error) {
	fr := a.fetch(source, req)
	if fr.err == nil && fr.rows == nil {
		return nil, false, nil
	}
	a.read(source)
	return fr.rows, true, a.absorb(fr.err)
}

// absorb applies the policy to a fetch error: under PolicyPartial an
// unavailable source reads as no data and a completeness mark.
func (a *Access) absorb(err error) error {
	if a.policy == PolicyPartial && sources.Transient(err) {
		return nil
	}
	return err
}

// FetchSpec names one fetch for Prefetch.
type FetchSpec struct {
	Source string
	Req    catalog.Request
}

// Prefetch starts all given fetches concurrently and waits for them;
// failures are reported per the policy at Roots time, so Prefetch only
// returns a hard error under PolicyFail.
func (a *Access) Prefetch(specs []FetchSpec) error {
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, s := range specs {
		// A cancelled query stops fanning out instead of launching the
		// remaining fetches.
		if err := a.ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int, source string, req catalog.Request) {
			defer wg.Done()
			errs[i] = a.fetch(source, req).err
			a.read(source)
		}(i, s.Source, s.Req)
	}
	wg.Wait()
	for _, err := range errs {
		if err := a.absorb(err); err != nil {
			return err
		}
	}
	return nil
}

// fetch performs one memoized source fetch, wrapped in a trace span and
// latency metrics (each distinct fetch runs and is recorded exactly
// once; later lookups share the memoized result). The form is decided
// here: rows for a native request to a registered source that answers
// in rows, a document otherwise.
func (a *Access) fetch(source string, req catalog.Request) *fetchResult {
	key := specKey(source, req)
	a.mu.Lock()
	fr, ok := a.memo[key]
	if !ok {
		fr = &fetchResult{}
		a.memo[key] = fr
	}
	a.mu.Unlock()
	fr.once.Do(func() {
		start := time.Now()
		sp := obs.FromContext(a.ctx).StartChildFor("fetch ", source)
		sp.SetAttr("source", source)
		fr.payload, fr.err = a.doFetch(source, req, sp)
		elapsed := time.Since(start)
		a.addTiming(source, elapsed)
		if fr.err != nil {
			sp.SetAttr("error", fr.err.Error())
		}
		sp.Finish()
		ss := a.runner.seriesFor(source)
		outcome := ss.ok
		switch {
		case errors.Is(fr.err, sources.ErrUnavailable):
			outcome = ss.unavailable
		case fr.err != nil:
			outcome = ss.failed
		}
		outcome().Inc()
		ss.seconds().Observe(elapsed.Seconds())
	})
	return fr
}

// read counts one logical read-through of a source's memoized fetches.
func (a *Access) read(source string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.timingLocked(source).reads++
}

// doFetch resolves one fetch: local store, schema materialization, or
// the source itself. It records the completeness status and mirrors it
// onto the fetch span so per-source spans agree with the report, and
// observes per-resolution latency histograms labeled by source name so
// federation hot spots show up on /metrics without needing a trace.
func (a *Access) doFetch(source string, req catalog.Request, sp obs.SpanRef) (payload, error) {
	record := func(st SourceStatus) {
		a.record(source, st)
		sp.SetInt("rows", int64(st.Rows))
		sp.SetInt("bytes", int64(st.Bytes))
		sp.SetBool("local", st.Local)
	}
	ss := a.runner.seriesFor(source)
	// Local materialized copy first.
	if a.runner.Local != nil {
		if doc, ok := a.runner.Local(source, req); ok {
			ss.local().Inc()
			record(SourceStatus{Source: source, Rows: doc.CountElements(), Local: true})
			return payload{doc: doc}, nil
		}
	}
	if a.runner.Cat.IsSchema(source) {
		if a.runner.Materialize == nil {
			return payload{}, fmt.Errorf("exec: schema %q needs materialization but no materializer is configured", source)
		}
		sp.SetAttr("kind", "schema")
		start := time.Now()
		doc, err := a.runner.Materialize(a.ctx, source, a)
		ss.materialize().Observe(time.Since(start).Seconds())
		if err != nil {
			record(SourceStatus{Source: source, Err: err.Error()})
			return payload{}, err
		}
		record(SourceStatus{Source: source, Rows: doc.CountElements()})
		return payload{doc: doc}, nil
	}
	src, err := a.runner.Cat.Source(source)
	if err != nil {
		return payload{}, err
	}
	fetch := func(ctx context.Context) (payload, catalog.Cost, error) {
		doc, cost, err := src.Fetch(ctx, req)
		return payload{doc: doc}, cost, err
	}
	// Rows only from the registered object itself: a capability found
	// through Inner() would skip what the wrapper does to a fetch.
	if rf, ok := catalog.RowsOf(src); ok && req.Native != "" {
		fetch = func(ctx context.Context) (payload, catalog.Cost, error) {
			res, cost, err := rf.FetchRows(ctx, req)
			return payload{rows: res, root: src.Name()}, cost, err
		}
	}
	start := time.Now()
	got, cost, retries, breaker, err := a.fetchResilient(src.Name(), source, fetch, sp)
	// The remote-only histogram isolates the source round trip (all
	// attempts plus backoff) from the memoization/local-store/
	// materialization paths that share nimble_fetch_seconds.
	ss.remote().Observe(time.Since(start).Seconds())
	if retries > 0 {
		sp.SetInt("retries", int64(retries))
	}
	if breaker != "" {
		sp.SetAttr("breaker", breaker)
	}
	if err != nil {
		record(SourceStatus{Source: source, Err: err.Error(), Retries: retries, Breaker: breaker})
		return payload{}, err
	}
	record(SourceStatus{Source: source, Rows: cost.RowsReturned, Bytes: cost.BytesMoved, Retries: retries, Breaker: breaker})
	return got, nil
}

// fetchResilient runs one remote fetch, of either form, through the
// resilience layer: circuit-breaker admission, per-attempt timeout, and
// bounded retry with jittered exponential backoff for transient
// failures. It returns the retry count and the breaker involvement
// ("open" fail-fast, "half-open" probe) for completeness/EXPLAIN
// attribution. Each attempt runs under its own child of sp (the fetch
// span) carrying the breaker decision and the attempt's error; backoff
// sleeps land on sp as events, so a kept trace shows the full retry
// history.
func (a *Access) fetchResilient(name, source string, fetch func(context.Context) (payload, catalog.Cost, error), sp obs.SpanRef) (payload, catalog.Cost, int, string, error) {
	r := a.runner
	res := r.Resilience
	br := r.breakerFor(source)
	attempts := 1 + res.Retries
	if attempts < 1 {
		attempts = 1
	}
	var (
		retries int
		breaker string
		lastErr error
	)
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := a.ctx.Err(); err != nil {
			return payload{}, catalog.Cost{}, retries, breaker, err
		}
		spAtt := sp.StartChildAt("attempt", attempt)
		if br != nil {
			ok, probe := br.Allow()
			if !ok {
				spAtt.SetAttr("breaker", "open")
				spAtt.SetAttr("error", "circuit breaker open")
				spAtt.Finish()
				return payload{}, catalog.Cost{}, retries, "open",
					fmt.Errorf("%w: %s: circuit breaker open", sources.ErrUnavailable, source)
			}
			if probe {
				breaker = "half-open"
				spAtt.SetAttr("breaker", "half-open")
			}
		}
		got, cost, err := a.attempt(name, fetch)
		if br != nil {
			// An answer — even a source-side rejection of the request —
			// proves the source alive; only transient transport/decode
			// failures count against its health.
			if err == nil || !sources.Transient(err) {
				br.Success()
			} else {
				br.Failure()
			}
		}
		if err == nil {
			spAtt.Finish()
			return got, cost, retries, breaker, nil
		}
		lastErr = err
		spAtt.SetAttr("error", err.Error())
		spAtt.Finish()
		if !sources.Transient(err) || attempt == attempts {
			break
		}
		retries++
		r.seriesFor(source).retries().Inc()
		delay := BackoffDelay(res.RetryBase, res.RetryMax, attempt,
			jitterNoise(source, attempt, r.clock().Now()))
		sp.AddEvent("retry backoff", "attempt", fmt.Sprint(attempt), "delay", delay.String())
		if err := r.clock().Sleep(a.ctx, delay); err != nil {
			return payload{}, catalog.Cost{}, retries, breaker, err
		}
	}
	return payload{}, catalog.Cost{}, retries, breaker, lastErr
}

// attempt performs one fetch attempt of the source called name under the
// per-attempt timeout, a deadline on the runner's clock. The fetch runs
// in its own goroutine selected against the attempt context, so even a
// source that ignores cancellation cannot hang the query — it costs at
// most FetchTimeout (the abandoned goroutine drains into a buffered
// channel). An attempt-deadline expiry is reported as a transient
// unavailability; caller cancellation is passed through.
func (a *Access) attempt(name string, fetch func(context.Context) (payload, catalog.Cost, error)) (payload, catalog.Cost, error) {
	timeout := a.runner.Resilience.FetchTimeout
	if timeout <= 0 {
		return fetch(a.ctx)
	}
	actx, cancel := a.runner.clock().WithTimeout(a.ctx, timeout)
	defer cancel()
	type outcome struct {
		got  payload
		cost catalog.Cost
		err  error
	}
	ch := make(chan outcome, 1)
	if err := actx.Err(); err != nil {
		return payload{}, catalog.Cost{}, err
	}
	go func() {
		got, cost, err := fetch(actx)
		ch <- outcome{got, cost, err}
	}()
	timedOut := func() error {
		return fmt.Errorf("%w: %s: fetch attempt timed out after %v", sources.ErrUnavailable, name, timeout)
	}
	select {
	case o := <-ch:
		if o.err != nil && actx.Err() != nil && a.ctx.Err() == nil {
			// The attempt deadline fired inside the source: transient.
			return payload{}, o.cost, timedOut()
		}
		return o.got, o.cost, o.err
	case <-actx.Done():
		if err := a.ctx.Err(); err != nil {
			return payload{}, catalog.Cost{}, err
		}
		return payload{}, catalog.Cost{}, timedOut()
	}
}

// addTiming accumulates one fetch's wall time for the source.
func (a *Access) addTiming(source string, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.timingLocked(source)
	t.fetches++
	t.nanos += d.Nanoseconds()
}

// timingLocked returns the source's timing record, creating it; the caller
// holds a.mu.
func (a *Access) timingLocked(source string) *fetchTiming {
	key := strings.ToLower(source)
	t := a.timings[key]
	if t == nil {
		t = &fetchTiming{}
		a.timings[key] = t
	}
	return t
}

// SourceFetchStat summarizes one source's fetch work during a query:
// the per-source attribution EXPLAIN trees embed as Fetch nodes.
type SourceFetchStat struct {
	Source  string
	Fetches int
	// Reads counts logical read-throughs of the memoized result; a
	// Reads higher than Fetches means plan operators re-read the
	// prefetched buffer (re-Open) without new source work — Fetches and
	// Rows stay single-counted.
	Reads   int
	Nanos   int64
	Rows    int
	Bytes   int
	Local   bool
	Err     string
	Retries int
	Breaker string
}

// FetchStats reports per-source fetch timing merged with the
// completeness rows/bytes, sorted by source name.
func (a *Access) FetchStats() []SourceFetchStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.timings))
	for k := range a.timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SourceFetchStat, 0, len(keys))
	for _, k := range keys {
		t := a.timings[k]
		fs := SourceFetchStat{Source: k, Fetches: t.fetches, Reads: t.reads, Nanos: t.nanos}
		if st, ok := a.statuses[k]; ok {
			fs.Source = st.Source
			fs.Rows = st.Rows
			fs.Bytes = st.Bytes
			fs.Local = st.Local
			fs.Err = st.Err
			fs.Retries = st.Retries
			fs.Breaker = st.Breaker
		}
		out = append(out, fs)
	}
	return out
}

// record merges a status for a source (several fetches to one source
// aggregate; an error on any fetch marks the source failed).
func (a *Access) record(source string, st SourceStatus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := strings.ToLower(source)
	cur, ok := a.statuses[key]
	if !ok {
		cp := st
		a.statuses[key] = &cp
		return
	}
	cur.Rows += st.Rows
	cur.Bytes += st.Bytes
	cur.Retries += st.Retries
	if st.Err != "" {
		cur.Err = st.Err
	}
	if st.Breaker != "" {
		cur.Breaker = st.Breaker
	}
	cur.Local = cur.Local && st.Local
}

// Report returns the completeness summary accumulated so far.
func (a *Access) Report() Completeness {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := Completeness{Complete: true}
	keys := make([]string, 0, len(a.statuses))
	for k := range a.statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := *a.statuses[k]
		if st.Err != "" {
			c.Complete = false
		}
		c.Statuses = append(c.Statuses, st)
	}
	return c
}
