package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mediator"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// traceQueries is how many stream queries the traced pass replays: enough
// for a steady median, few enough that the heavy workloads stay short.
var traceQueries = map[string]int{wlPoint: 200, wlJoin: 50, wlExport: 50, wlCached: 200}

// allocQueries is how many of them are replayed once more with allocation
// counters around each stage (reading them stops the world, so they get a
// pass of their own and stay out of the timings).
const allocQueries = 30

// The stages of core.Engine.run, in its order, named layer.stage. Their
// self times are the per-layer timings.
var stageNames = []string{
	"xmlql.parse", "mediator.unfold", "opt.plan", "exec.prefetch",
	"algebra.drain", "construct.build", "construct.sort", "xmlparse.serialize",
}

// span is one timed call into a layer. Times are nanoseconds since the
// traced pass began; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu

	// query and parent are what a source fetch attaches itself to: the
	// traced pass runs one query at a time, fetches may run concurrently.
	query  atomic.Int64
	parent atomic.Int64
}

func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: int(r.query.Load()), Name: name, StartNS: now})
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	return now - r.spans[id-1].StartNS
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since copies the spans recorded from position first on.
func (r *recorder) since(first int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[first:]...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// staged is what one staged replay of a query produced besides its timing.
type staged struct {
	body     string
	rewrites int
	fetches  []catalog.Request // every fetch spec planned
	stats    algebra.Stats
}

// replay executes a query stage by stage with the same public calls
// core.Engine.run makes, in its order; stage brackets each call so the
// caller can time it, count its allocations, or do nothing.
func replay(ctx context.Context, d *deployment, runner *exec.Runner, src string, stage func(name string, fn func())) (*staged, error) {
	out := &staged{}
	var err error
	var q *xmlql.Query
	stage("xmlql.parse", func() { q, err = xmlql.Parse(src) })
	if err != nil {
		return nil, err
	}
	grant := d.sys.Scheduler().Acquire(0, sched.Interactive)
	defer grant.Release()
	access := runner.NewAccess(ctx, exec.PolicyPartial)
	actx := &algebra.Context{}

	var rewrites []mediator.Rewrite
	stage("mediator.unfold", func() {
		rewrites, err = mediator.UnfoldSkip(runner.Cat, q, d.sys.Views().Holds)
	})
	if err != nil {
		return nil, err
	}
	out.rewrites = len(rewrites)

	type item struct {
		value xmldm.Value
		keys  []xmldm.Value
	}
	var items []item
	orderPushed := len(rewrites) == 1
	for _, rw := range rewrites {
		planner := opt.New(runner.Cat, access)
		planner.Opts.Parallelism = grant.Checkpoint()
		var plan *opt.Plan
		stage("opt.plan", func() { plan, err = planner.Plan(rw, nil, nil) })
		if err != nil {
			return nil, err
		}
		if !plan.OrderPushed {
			orderPushed = false
		}
		specs := make([]exec.FetchSpec, len(plan.Fetches))
		for i, f := range plan.Fetches {
			specs[i] = exec.FetchSpec{Source: f.Source, Req: f.Req}
			out.fetches = append(out.fetches, f.Req)
		}
		stage("exec.prefetch", func() { err = access.Prefetch(specs) })
		if err != nil {
			return nil, err
		}
		var bindings []algebra.Binding
		stage("algebra.drain", func() { bindings, err = algebra.Drain(actx, plan.Root) })
		if err != nil {
			return nil, err
		}
		stage("construct.build", func() {
			for _, b := range bindings {
				it := item{}
				for _, k := range plan.OrderBy {
					var v xmldm.Value
					if v, err = algebra.Eval(actx, k.Expr, b); err != nil {
						return
					}
					it.keys = append(it.keys, v)
				}
				if it.value, err = algebra.BuildResult(actx, plan.Construct, b); err != nil {
					return
				}
				items = append(items, it)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 && !orderPushed {
		stage("construct.sort", func() {
			perm := algebra.StableSortIndices(len(items), grant.Checkpoint(), func(i, j int) int {
				for k, key := range q.OrderBy {
					c := xmldm.Compare(items[i].keys[k], items[j].keys[k])
					if c == 0 {
						continue
					}
					if key.Desc {
						return -c
					}
					return c
				}
				return 0
			})
			sorted := make([]item, len(items))
			for i, p := range perm {
				sorted[i] = items[p]
			}
			items = sorted
		})
	}
	stage("xmlparse.serialize", func() {
		res := &core.Result{Values: make([]xmldm.Value, len(items)), Completeness: access.Report()}
		for i, it := range items {
			res.Values[i] = it.value
		}
		out.body = xmlparse.SerializeString(res.Document(), 2)
	})
	out.stats = actx.Snapshot()
	return out, nil
}

// newRunner is the fetch runtime of the staged replay, configured like the
// engines' own: local materialized store first, same resilience settings.
func newRunner(d *deployment) *exec.Runner {
	cfg := config(d.data.workload, 0, d.reg)
	return &exec.Runner{
		Cat:   d.sys.Engine(0).Catalog(),
		Local: d.sys.Views().Lookup,
		Materialize: func(context.Context, string, *exec.Access) (*xmldm.Node, error) {
			return nil, fmt.Errorf("bench: staged replay met a schema that did not unfold")
		},
		Metrics:    d.reg,
		Resilience: exec.Resilience{FetchTimeout: cfg.FetchTimeout, Retries: cfg.FetchRetries},
		Breakers:   exec.NewBreakerSet(cfg.BreakerThreshold, 0, nil, d.reg),
	}
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Schema   string            `json:"schema"`
	Workload string            `json:"workload"`
	Queries  int               `json:"queries"`
	Summary  map[string]metric `json:"summary"`
	Spans    []span            `json:"spans"`
}

// tracer is the state of one traced pass.
type tracer struct {
	ctx    context.Context
	d      *deployment
	runner *exec.Runner
	rec    *recorder
	hc     *http.Client
}

// sample is what the traced pass learned about one query. Times are in
// microseconds.
type sample struct {
	stage       map[string]float64 // self time of each stage
	stagesTotal float64            // durations of the stages before serialize
	stagedTotal float64
	simUS       float64 // simulated network latency slept
	fetchUS     float64 // time inside the sources
	rows        float64 // rows the sources returned
	out         *staged

	engine, cluster, clusterPlain, http, serialize float64
}

// timed runs fn under a root span and returns its duration.
func (t *tracer) timed(name string, fn func() error) (float64, error) {
	id := t.rec.start(name, 0)
	t.rec.parent.Store(int64(id))
	err := fn()
	return float64(t.rec.end(id)) / 1e3, err
}

// staged is pass (a) for stream position i: the staged replay with a span
// around every stage. A stage's figure is its self time, so exec.prefetch
// excludes the fetches under it, and also the simulated latency they slept;
// the stages' durations together are what Engine.QueryOpt is compared with.
func (t *tracer) staged(i int) (*sample, error) {
	d, rec := t.d, t.rec
	idx := d.data.stream[i]
	src := d.data.pool[idx]
	sim0, busy0, rows0 := d.simulated(), d.sourceBusy(), d.sourceRows()
	first := rec.len()
	sm := &sample{stage: map[string]float64{}}
	var err error
	sm.stagedTotal, err = t.timed("query.staged", func() error {
		root := int(rec.parent.Load())
		var err error
		sm.out, err = replay(t.ctx, d, t.runner, src, func(name string, fn func()) {
			id := rec.start(name, root)
			rec.parent.Store(int64(id))
			fn()
			rec.end(id)
			rec.parent.Store(int64(root))
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("staged replay of %q: %w", src, err)
	}
	if sha256.Sum256([]byte(sm.out.body)) != d.oracle[idx].digest {
		return nil, fmt.Errorf("staged replay of %q differs from the oracle's answer", src)
	}
	sm.simUS = float64(d.simulated()-sim0) / 1e3
	sm.fetchUS = float64(d.sourceBusy()-busy0) / 1e3
	sm.rows = float64(d.sourceRows() - rows0)
	mine := rec.since(first)
	self := selfTimes(mine)
	for _, s := range mine {
		if s.Parent == 0 || s.Name == "sources.fetch" {
			continue
		}
		sm.stage[s.Name] += float64(self[s.ID]) / 1e3
		if s.Name != "xmlparse.serialize" {
			sm.stagesTotal += float64(s.EndNS-s.StartNS) / 1e3
		}
	}
	sm.stage["exec.prefetch"] = max(0, sm.stage["exec.prefetch"]-sm.simUS)
	sm.serialize = sm.stage["xmlparse.serialize"]
	return sm, nil
}

// whole is pass (b): the same query as one call at each of the three outer
// boundaries. Explain makes the cluster bypass its caches (the engine
// ignores it), so the cluster and engine calls do the same work; whichever
// of the two runs second finds warmer CPU caches, so they take turns.
func (t *tracer) whole(i int, sm *sample) error {
	d := t.d
	idx := d.data.stream[i]
	src := d.data.pool[idx]
	eng, cl := d.sys.Engine(0), d.sys.Cluster()
	serialize := func(res *core.Result) string { return xmlparse.SerializeString(res.Document(), 2) }

	var res *core.Result
	calls := []func() error{
		func() (err error) {
			sm.engine, err = t.timed("core.Engine.QueryOpt", func() (err error) {
				res, err = eng.QueryOpt(t.ctx, src, core.QueryOptions{Explain: true})
				return err
			})
			return err
		},
		func() (err error) {
			sm.cluster, err = t.timed("cluster.Cluster.QueryOpt", func() error {
				_, err := cl.QueryOpt(t.ctx, src, core.QueryOptions{Explain: true})
				return err
			})
			return err
		},
	}
	for k := range calls {
		if err := calls[(i+k)%2](); err != nil {
			return err
		}
	}
	if sha256.Sum256([]byte(serialize(res))) != d.oracle[idx].digest {
		return fmt.Errorf("Engine.QueryOpt answer to %q differs from the oracle's", src)
	}

	// The HTTP path takes the cluster's caches, so it is compared with a
	// cluster call in the same cache state: primed, on cached-mix.
	sm.clusterPlain = sm.cluster
	if d.data.workload == wlCached {
		if _, err := cl.QueryOpt(t.ctx, src, core.QueryOptions{}); err != nil {
			return err
		}
		var hit *core.Result
		var err error
		sm.clusterPlain, err = t.timed("cluster.Cluster.QueryOpt(cached)", func() (err error) {
			hit, err = cl.QueryOpt(t.ctx, src, core.QueryOptions{})
			return err
		})
		if err != nil {
			return err
		}
		// A hit skips the engine, so the answer the server serializes is
		// timed here rather than taken from the staged replay.
		t0 := time.Now()
		serialize(hit)
		sm.serialize = float64(time.Since(t0)) / 1e3
	}
	s := &sender{d: d, client: t.hc}
	sm.http, _ = t.timed("server.HTTP", func() error { s.query(idx, time.Now()); return nil })
	if s.failed() > 0 {
		return fmt.Errorf("traced HTTP request for %q failed: %+v", src, s.tally)
	}
	return nil
}

// replayAll replays the first n stream queries with the given stage hook
// and returns each replay's wall time in microseconds.
func (t *tracer) replayAll(n int, stage func(name string, fn func())) ([]float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := replay(t.ctx, t.d, t.runner, t.d.data.pool[t.d.data.stream[i]], stage); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return us, nil
}

// tracedPass replays the first queries of the stream with one client, two
// ways: stage by stage (spans around each call into a layer) and whole at
// the three outer boundaries (engine, cluster, HTTP), whose differences
// are the overhead layers. It returns the per-layer metrics and writes the
// spans to outDir.
func tracedPass(d *deployment, outDir string) (map[string]metric, error) {
	n := traceQueries[d.data.workload]
	t := &tracer{ctx: context.Background(), d: d, runner: newRunner(d), rec: &recorder{t0: time.Now()}, hc: newHTTPClient()}
	defer t.hc.CloseIdleConnections()
	for _, src := range d.timers {
		src.rec.Store(t.rec)
	}

	samples := make([]*sample, n)
	for i := range samples {
		t.rec.query.Store(int64(i + 1))
		sm, err := t.staged(i)
		if err != nil {
			return nil, err
		}
		if err := t.whole(i, sm); err != nil {
			return nil, err
		}
		samples[i] = sm
	}
	t.rec.parent.Store(0)

	// (c) the same staged replay without spans: the difference is what the
	// harness's own tracing costs.
	untraced, err := t.replayAll(n, func(_ string, fn func()) { fn() })
	if err != nil {
		return nil, err
	}

	// (d) allocations per stage, one client, so they repeat almost exactly.
	allocs := map[string]float64{}
	na := min(n, allocQueries)
	_, err = t.replayAll(na, func(name string, fn func()) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		allocs[name] += float64(b.Mallocs-a.Mallocs) / float64(na)
	})
	if err != nil {
		return nil, err
	}

	// Each pushed fragment again, straight into the database, for the rows
	// it scanned per row it returned.
	var pushed, specs, scanned, returned float64
	natives := map[string]bool{}
	for _, sm := range samples {
		for _, req := range sm.out.fetches {
			specs++
			if req.Native == "" {
				continue
			}
			pushed++
			if natives[req.Native] {
				continue
			}
			natives[req.Native] = true
			r, err := d.crm.Exec(req.Native)
			if err != nil {
				return nil, fmt.Errorf("replaying fragment %q: %w", req.Native, err)
			}
			scanned += float64(r.Stats.RowsScanned)
			returned += float64(len(r.Rows))
		}
	}

	col := func(f func(*sample) float64) []float64 {
		xs := make([]float64, n)
		for i, sm := range samples {
			xs[i] = f(sm)
		}
		return xs
	}
	mean := func(f func(*sample) float64) float64 { return sum(col(f)) / float64(n) }
	m := map[string]metric{
		"core.query_us":            {median(col(func(s *sample) float64 { return s.engine })), "us"},
		"core.overhead_us":         {median(col(func(s *sample) float64 { return s.engine - s.stagesTotal })), "us"},
		"cluster.overhead_us":      {median(col(func(s *sample) float64 { return s.cluster - s.engine })), "us"},
		"server.overhead_us":       {median(col(func(s *sample) float64 { return s.http - s.clusterPlain - s.serialize })), "us"},
		"sources.fetch_us":         {mean(func(s *sample) float64 { return s.fetchUS }), "us"},
		"sources.sim_latency_us":   {mean(func(s *sample) float64 { return s.simUS }), "us"},
		"sources.rows_moved":       {mean(func(s *sample) float64 { return s.rows }), "count"},
		"mediator.rewrites":        {mean(func(s *sample) float64 { return float64(s.out.rewrites) }), "count"},
		"opt.pushed_ratio":         {ratio(pushed, specs), "ratio"},
		"rdb.rows_scanned_per_row": {ratio(scanned, returned), "ratio"},
		"algebra.tuples":           {mean(func(s *sample) float64 { return float64(s.out.stats.TuplesEmitted) }), "count"},
		"algebra.pattern_matches":  {mean(func(s *sample) float64 { return float64(s.out.stats.PatternMatches) }), "count"},
		"algebra.operators":        {mean(func(s *sample) float64 { return float64(s.out.stats.OperatorsRun) }), "count"},
		"xmlparse.bytes_out":       {mean(func(s *sample) float64 { return float64(len(s.out.body)) }), "B"},
		"trace_overhead_ratio":     {median(col(func(s *sample) float64 { return s.stagedTotal }))/median(untraced) - 1, "ratio"},
	}
	for _, name := range stageNames {
		m[name+"_us"] = metric{median(col(func(s *sample) float64 { return s.stage[name] })), "us"}
		layer := name[:strings.IndexByte(name, '.')] + ".allocs"
		m[layer] = metric{m[layer].Value + allocs[name], "count"}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	out, err := json.Marshal(traceFile{Schema: recordSchema, Workload: d.data.workload, Queries: n, Summary: m, Spans: t.rec.since(0)})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+d.data.workload+".json"), out, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters are the program's own running totals that only mean something
// under load; they are read before and after the window.
type counters struct {
	shed       int64
	queueWaitS float64
	queueWaits int64
	hits       int64
	misses     int64
	evictions  int64
	localReads int64
	downgrades int64
}

func readCounters(d *deployment) counters {
	st := d.sys.Cluster().Status()
	cs := d.sys.CacheStats()
	qw := d.reg.Histogram("nimble_cluster_queue_wait_seconds")
	c := counters{
		shed:       st.ShedQueueFull + st.ShedDeadline,
		queueWaitS: qw.Sum(),
		queueWaits: qw.Count(),
		hits:       cs.Hits,
		misses:     cs.Misses,
		evictions:  cs.Evictions,
		downgrades: d.sys.Scheduler().Snap().Downgrades,
	}
	for _, e := range d.sys.Views().Entries() {
		c.localReads += e.Hits
	}
	return c
}

// since turns two counter readings around a window into the load-side
// per-layer metrics.
func (c counters) since(b counters, w *window) map[string]metric {
	waits := float64(c.queueWaits - b.queueWaits)
	return map[string]metric{
		"cluster.shed":          {float64(c.shed - b.shed), "count"},
		"cluster.queue_wait_us": {ratio((c.queueWaitS-b.queueWaitS)*1e6, waits), "us"},
		"qcache.hit_ratio":      {ratio(float64(c.hits-b.hits), float64(c.hits-b.hits+c.misses-b.misses)), "ratio"},
		"qcache.evictions":      {float64(c.evictions - b.evictions), "count"},
		"matview.refresh_ms":    {median(w.refreshMS), "ms"},
		"matview.local_reads":   {float64(c.localReads - b.localReads), "count"},
		"sched.downgrades":      {float64(c.downgrades - b.downgrades), "count"},
	}
}

// simulated is the network-sim latency charged so far, in nanoseconds.
func (d *deployment) simulated() int64 {
	var total time.Duration
	for _, s := range d.sims {
		_, _, sim := s.Stats()
		total += sim
	}
	return int64(total)
}

func (d *deployment) sourceBusy() (ns int64) {
	for _, t := range d.timers {
		ns += t.nanos.Load()
	}
	return ns
}

func (d *deployment) sourceRows() (n int64) {
	for _, t := range d.timers {
		n += t.rows.Load()
	}
	return n
}
