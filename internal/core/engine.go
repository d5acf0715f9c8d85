// Package core assembles the Nimble integration engine: the query
// lifecycle of Figure 1. A query is parsed (xmlql), rewritten over the
// mediated schemas (mediator), compiled into per-source fragments and a
// physical plan (opt + sqlgen), executed with parallel source access and
// the availability policy (exec + algebra), and finally constructed into
// result XML.
package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// Engine is one instance of the integration engine. It is safe for
// concurrent queries. Its configuration is fixed at New; only the
// function table and the local store change afterwards.
type Engine struct {
	cat    *catalog.Catalog
	runner *exec.Runner

	id     string
	opts   opt.Options
	par    int              // resolved: never 0
	sched  *sched.Scheduler // never nil
	class  sched.Class
	policy exec.Policy
	traces *obs.TraceStore
	slow   *SlowLog
	active *ActiveRegistry

	// nimble_prepared_total{outcome="hit"|"miss"}, from metrics.
	mPreparedHit, mPreparedMiss *obs.Counter
	// The per-query series, resolved at their first use and held.
	mQueries, mErrors, mBound, mFallback func() *obs.Counter
	mSeconds                             func() *obs.Histogram
	mWorkers                             func() *obs.Gauge
	onWorkers                            func(delta int) // moves mWorkers

	mu         sync.RWMutex
	funcs      map[string]func([]xmldm.Value) (xmldm.Value, error) // guarded by mu; replaced, never written
	skipUnfold func(string) bool                                   // guarded by mu

	prepared   preparedCache
	queriesRun atomic.Int64

	// inflight guards against cyclic schema materialization: per query
	// execution (per Access), the set of schemas being materialized.
	inflightMu sync.Mutex
	inflight   map[*exec.Access]map[string]bool // guarded by inflightMu
}

// Config is an engine's whole configuration, fixed at New. The zero
// value is a standalone engine: pushdown on, the partial policy, the
// default metrics registry, the process-wide scheduler, real time, and
// no tracing, introspection, retries or breakers.
type Config struct {
	// ID names this instance in the cluster registry, /debug/cluster,
	// and the per-instance metric labels; empty lets the cluster fall
	// back to the registration index.
	ID string
	// Metrics receives the engine's series (nil = obs.Default()).
	Metrics *obs.Registry
	// Traces receives the span tree of every query the engine is the
	// outermost tier of (no caller span in the context); when a front end
	// already owns the trace, the engine only hangs its work under the
	// caller's span and the owner records it. Nil disables recording;
	// QueryOptions.Profile still works.
	Traces *obs.TraceStore
	// Slow and Active are the slow-query log and active-query registry
	// the engine reports into; both may be shared across instances, and
	// either may be nil to disable that surface.
	Slow   *SlowLog
	Active *ActiveRegistry
	// Resilience sets per-attempt timeouts and retry/backoff for remote
	// fetches; Breakers, shareable across instances so all queries agree
	// on which sources are quarantined, quarantines failing sources (nil
	// disables breakers); Clock is the time attempt deadlines and backoff
	// sleeps run on (nil = real time; tests inject fake time).
	Resilience exec.Resilience
	Breakers   *exec.BreakerSet
	Clock      exec.Clock
	// FailOnUnavailable makes PolicyFail the default source-availability
	// policy (PolicyPartial otherwise).
	FailOnUnavailable bool
	// DisablePushdown plans with every optimization off (an ablation
	// knob; the answer is unchanged).
	DisablePushdown bool
	// Parallelism is the degree a query's operators *request*: n > 1
	// asks for hash joins and the final ORDER-BY sort to run on up to n
	// worker goroutines once their input reaches its measured crossover
	// (everything else stays serial; DESIGN §12); 1 forces serial plans;
	// 0 requests the scheduler's whole worker budget. An operator past
	// its gate acquires its degree from Scheduler for as long as it runs,
	// which grants min(requested, 1+available) with a floor of 1, so
	// concurrent operators share the budget and a query under every gate
	// never asks. EXPLAIN `workers=N` is the granted degree, with
	// `want=M` beside it when less was granted than requested. Parallel
	// plans produce output byte-identical to their serial twins at any
	// granted degree.
	Parallelism int
	// Scheduler is the worker budget the parallel operators acquire
	// from; every instance of a deployment normally shares one (nil =
	// sched.Default()).
	Scheduler *sched.Scheduler
	// Class is the default scheduling class of the engine's queries;
	// QueryOptions.Class overrides it per query.
	Class sched.Class
}

// New creates an engine over a catalog.
func New(cat *catalog.Catalog, cfg Config) *Engine {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.Default()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = cfg.Scheduler.Budget()
	}
	e := &Engine{
		cat:           cat,
		id:            cfg.ID,
		opts:          opt.DefaultOptions(),
		par:           cfg.Parallelism,
		sched:         cfg.Scheduler,
		class:         cfg.Class,
		policy:        exec.PolicyPartial,
		traces:        cfg.Traces,
		slow:          cfg.Slow,
		active:        cfg.Active,
		mPreparedHit:  cfg.Metrics.Counter("nimble_prepared_total", "outcome", "hit"),
		mPreparedMiss: cfg.Metrics.Counter("nimble_prepared_total", "outcome", "miss"),
		mQueries:      cfg.Metrics.CounterOnce("nimble_queries_total"),
		mErrors:       cfg.Metrics.CounterOnce("nimble_query_errors_total"),
		mBound:        cfg.Metrics.CounterOnce("nimble_bind_join_total", "outcome", "bound"),
		mFallback:     cfg.Metrics.CounterOnce("nimble_bind_join_total", "outcome", "fallback"),
		mSeconds:      cfg.Metrics.HistogramOnce("nimble_query_seconds"),
		mWorkers:      cfg.Metrics.GaugeOnce("nimble_parallel_workers"),
		funcs:         map[string]func([]xmldm.Value) (xmldm.Value, error){},
		inflight:      map[*exec.Access]map[string]bool{},
	}
	e.onWorkers = func(delta int) { e.mWorkers().Add(float64(delta)) }
	if cfg.FailOnUnavailable {
		e.policy = exec.PolicyFail
	}
	if cfg.DisablePushdown {
		e.opts = opt.Options{}
	}
	e.runner = &exec.Runner{
		Cat:         cat,
		Materialize: e.materializeSchema,
		Metrics:     cfg.Metrics,
		Resilience:  cfg.Resilience,
		Breakers:    cfg.Breakers,
		Clock:       cfg.Clock,
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// ID reports the instance identity (Config.ID).
func (e *Engine) ID() string { return e.id }

// Scheduler reports the scheduler this engine's operators acquire from.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// RegisterFunc adds a scalar function visible to queries — the hook
// through which the cleaning subsystem exposes normalization functions
// for dynamic, query-time cleaning (§3.2). Functions may be registered
// while queries run: a running query keeps reading the map it took, so
// it is replaced, never written.
func (e *Engine) RegisterFunc(name string, fn func([]xmldm.Value) (xmldm.Value, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	funcs := maps.Clone(e.funcs)
	funcs[name] = fn
	e.funcs = funcs
}

// SetLocalStore installs the local materialized store consulted before
// any remote fetch, and the predicate naming schemas that should not be
// unfolded because the store holds them. It is set after New because
// the store's manager computes views through the engine it installs
// itself on (matview.NewManager).
func (e *Engine) SetLocalStore(local func(source string, req catalog.Request) (*xmldm.Node, bool), skipUnfold func(string) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.Local = local
	e.skipUnfold = skipUnfold
	e.prepared.clear() // unfolded under the predicate replaced
}

// QueriesRun reports the number of top-level queries executed (the
// cluster front end uses it for per-instance load accounting).
func (e *Engine) QueriesRun() int64 { return e.queriesRun.Load() }

// Stats summarizes one query's execution.
type Stats struct {
	Rewrites       int
	Fetches        int
	TuplesEmitted  int64
	PatternMatches int64
	// DrainNanos / OperatorsRun aggregate operator-tree evaluation wall
	// time and tree sizes across the query (including subqueries).
	DrainNanos   int64
	OperatorsRun int64
	// ParallelWorkers / WorkerNanos count the workers that joins past
	// their gate spawned during the query and their cumulative busy wall
	// time (0 / 0 when every join ran serially).
	ParallelWorkers int64
	WorkerNanos     int64
}

// ExplainTree is the per-operator statistics tree of one execution (the
// EXPLAIN ANALYZE report): a synthetic Query root, one instrumented plan
// per rewrite, and per-source Fetch attribution nodes.
type ExplainTree = algebra.ExplainNode

// Result is a query's answer.
type Result struct {
	// Values are the constructed result elements, in result order; nil
	// whenever QueryOptions.Buffer was given, which takes them instead.
	Values []xmldm.Value
	// Rows counts the result elements, in Values or in the buffer.
	Rows int
	// Deps are the source and schema names the query text reads, at any
	// depth (catalog.QueryDeps); shared with the prepared query, so
	// read-only.
	Deps []string
	// Completeness reports which sources answered (§3.4).
	Completeness exec.Completeness
	Stats        Stats
	// Explain is the per-operator statistics tree; instrumentation is
	// always on, so it is populated for every query.
	Explain *ExplainTree
	// Trace is a copy of the execution span tree, built when the query
	// finished, set when QueryOptions.Profile was requested.
	Trace *obs.Span
}

// View wraps the result values under a read-only <results> element
// without copying them: its children are the Values themselves (capped
// at their length, so nothing can be appended into Values' spare
// capacity), their Parent and Ord still say what the builder left there,
// and the root is not finalized. It is what the serialize-only paths
// render — serializers read only names, attributes and children — and
// since Values may be shared with the query cache, nothing reachable
// from it may be modified; callers that edit the tree take Document.
func (r *Result) View() *xmldm.Node {
	root := &xmldm.Node{Name: "results", Children: r.Values[:len(r.Values):len(r.Values)]}
	if !r.Completeness.Complete {
		root.Attrs = append(root.Attrs, xmldm.Attr{Name: "complete", Value: "false"})
		// The first failed source goes in the attribute; the full list is
		// in Completeness.
		if failed := r.Completeness.FailedSources(); len(failed) > 0 {
			root.Attrs = append(root.Attrs, xmldm.Attr{Name: "failed", Value: failed[0]})
		}
	}
	return root
}

// Document wraps the result values under a <results> element. The tree
// is a finalized deep copy, the caller's to modify (the HTTP front end
// appends <explain> and <profile> to it, lenses re-parent its children).
func (r *Result) Document() *xmldm.Node {
	root := algebra.CopyNode(r.View())
	xmldm.Finalize(root)
	return root
}

// QueryOptions tune one query execution.
type QueryOptions struct {
	// Policy overrides the engine default when set.
	Policy *exec.Policy
	// Profile requests the execution span tree in Result.Trace (the
	// ?profile=1 query option of the HTTP front end).
	Profile bool
	// Explain requests that the caller-facing surface (HTTP, CLI) render
	// Result.Explain. The tree itself is always collected; this flag only
	// gates output.
	Explain bool
	// Class overrides the engine's default scheduling class for this
	// query: "interactive" or "batch" (empty keeps the engine default).
	// The HTTP front end maps the X-Nimble-Class header here.
	Class string
	// Buffer, when set, takes the answer in place of Result.Values: each
	// result element is written into it by its rewrite's CONSTRUCT
	// program (algebra.Program), and no result tree is built. An answer
	// in its final order (no ORDER-BY, or one the source sorted) is
	// written as the plan produces each binding, so no binding list is
	// held either; one the mediator sorts holds its bindings and is
	// written after the sort. The caller has begun the document
	// (StartDocument) and ends it under the Result's root; a query that
	// fails part way leaves the rows written before the failing one, for
	// the caller to discard.
	Buffer *xmlparse.Buffer
}

// Query parses and executes an XML-QL query.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	return e.QueryOpt(ctx, src, QueryOptions{})
}

// QueryOpt is Query with per-query options. The parse and the unfolding
// are done once per query shape (xmlql.Shape) and set of pinned literals,
// and a later text of that shape binds its own comparison literals into
// the prepared rewrites (PreparedStats); planning runs per call.
func (e *Engine) QueryOpt(ctx context.Context, src string, qo QueryOptions) (*Result, error) {
	sh := shapes.Get().(*xmlql.Shape)
	defer func() {
		if sh.Poolable() {
			shapes.Put(sh)
		}
	}()
	if err := sh.Scan(src); err != nil {
		return nil, err
	}
	call, err := e.prepare(sh)
	if err != nil {
		return nil, err
	}
	q := call.Query
	e.queriesRun.Add(1)
	e.mu.RLock()
	funcs := e.funcs
	e.mu.RUnlock()
	class := e.class
	if qo.Class != "" {
		c, err := sched.ParseClass(qo.Class)
		if err != nil {
			return nil, err
		}
		class = c
	}
	// Precedence: the query's own ON-UNAVAILABLE prelude overrides the
	// engine default; an explicit per-call option overrides both.
	policy := e.policy
	switch q.OnUnavailable {
	case "fail":
		policy = exec.PolicyFail
	case "partial":
		policy = exec.PolicyPartial
	}
	if qo.Policy != nil {
		policy = *qo.Policy
	}

	start := time.Now()
	aq := e.active.Register(src)
	defer e.active.Finish(aq)
	// When a caller (the HTTP front end, via the cluster hop) already
	// carries a span, the engine's work hangs under it — one TraceID end
	// to end — and the caller records the finished trace. Only when the
	// engine is the outermost tier does it start (and record) its own
	// root trace.
	var root obs.SpanRef
	ownRoot := false
	if parent := obs.FromContext(ctx); !parent.IsZero() {
		root = parent.StartChild("engine")
	} else if qo.Profile || e.traces != nil {
		root = e.traces.NewRoot("engine", obs.TraceContext{})
		ownRoot = true
	}
	if !root.IsZero() {
		root.SetAttr("policy", policy.String())
		if e.id != "" {
			root.SetAttr("instance", e.id)
		}
		ctx = obs.ContextWithSpan(ctx, root)
	}

	access := e.runner.NewAccess(ctx, policy)
	// The query holds no workers: a join or sort past its gate acquires
	// them from the scheduler under the query's class while it runs.
	actx := &algebra.Context{Funcs: funcs, Trace: root, Sched: e.sched, Class: class}
	e.mWorkers() // registered by the first query, as it always was
	actx.OnWorkers = e.onWorkers
	res := &Result{Explain: &ExplainTree{Op: "Query"}, Deps: call.deps}
	qs := &queryState{ctx: ctx, access: access, actx: actx, par: e.par,
		top: true, call: call, stats: &res.Stats, aq: aq, ex: res.Explain, buf: qo.Buffer}
	sub := &queryState{ctx: ctx, access: access, actx: actx, par: e.par}
	actx.SubqueryEval = func(subq *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
		return e.run(sub, subq, outer)
	}
	values, err := e.run(qs, q, nil)
	elapsed := time.Since(start)
	snap := actx.Snapshot()

	e.mQueries().Inc()
	if snap.BindJoins > 0 {
		e.mBound().Add(snap.BindJoins)
	}
	if snap.BindFallbacks > 0 {
		e.mFallback().Add(snap.BindFallbacks)
	}
	// The latency observation carries the trace id as a bucket exemplar:
	// a bad percentile on the histogram links straight to a kept trace.
	tid := root.TraceID().String()
	e.mSeconds().ObserveExemplar(elapsed.Seconds(), tid)
	entry := SlowEntry{
		Query:      src,
		TraceID:    tid,
		Start:      start,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
	}
	if err != nil {
		e.mErrors().Inc()
		entry.Error = err.Error()
		root.SetAttr("error", err.Error())
	} else {
		res.Values = values
		res.Rows = len(values) + qs.written
		res.Completeness = access.Report()
		res.Stats.TuplesEmitted = snap.TuplesEmitted
		res.Stats.PatternMatches = snap.PatternMatches
		res.Stats.DrainNanos = snap.DrainNanos
		res.Stats.OperatorsRun = snap.OperatorsRun
		res.Stats.ParallelWorkers = snap.WorkersSpawned
		res.Stats.WorkerNanos = snap.WorkerNanos
		res.Explain.RowsOut = int64(res.Rows)
		entry.Tuples = snap.TuplesEmitted
		entry.Complete = res.Completeness.Complete
		root.SetInt("results", int64(res.Rows))
		root.SetInt("tuples", snap.TuplesEmitted)
		root.SetBool("complete", res.Completeness.Complete)
	}
	res.Explain.Finalize()
	attachFetchStats(res.Explain, access.FetchStats(), elapsed)
	// The plan is rendered only if the slow log keeps the entry.
	e.slow.Record(entry, res.Explain.Render)
	root.Finish()
	// The copy is built before the trace is recorded: a dropped trace's
	// arena goes straight back to the pool.
	if qo.Profile && err == nil {
		res.Trace = root.Tree()
	}
	if ownRoot {
		e.traces.Record(root)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// attachFetchStats appends one synthetic Fetch node per accessed source
// under the Query root and stamps the root with the query's wall time.
// Call it after Finalize so the root's rows-in stays the sum of the plan
// roots' output, not of fetched source rows.
func attachFetchStats(ex *ExplainTree, fetches []exec.SourceFetchStat, elapsed time.Duration) {
	ex.NextNanos = elapsed.Nanoseconds()
	for _, fs := range fetches {
		detail := fmt.Sprintf("%s fetches=%d", fs.Source, fs.Fetches)
		if fs.Bytes > 0 {
			detail += fmt.Sprintf(" bytes=%d", fs.Bytes)
		}
		if fs.Retries > 0 {
			detail += fmt.Sprintf(" retries=%d", fs.Retries)
		}
		if fs.Breaker != "" {
			detail += " breaker=" + fs.Breaker
		}
		if fs.Local {
			detail += " local"
		}
		if fs.Err != "" {
			detail += " error=" + fs.Err
		}
		ex.Children = append(ex.Children, &algebra.ExplainNode{
			Op:        "Fetch",
			Detail:    detail,
			RowsOut:   int64(fs.Rows),
			NextNanos: fs.Nanos,
		})
	}
}

// queryState is what every run of one query execution shares: the query
// itself, the correlated subqueries evaluated beneath it, and the view
// definitions of a schema it materializes.
type queryState struct {
	ctx    context.Context
	access *exec.Access
	actx   *algebra.Context
	// par is the degree the query's joins and sort ask for; 0 (schema
	// materialization) plans serially.
	par int
	// top marks the query itself, as opposed to what runs beneath it.
	// Only it reports: stats, aq (the active-query handle) and ex (the
	// EXPLAIN tree collecting one instrumented plan per rewrite) are set
	// for it alone, and each is nil-safe to use. call, its prepared
	// entry, is nil for a query not run from text.
	top   bool
	call  *preparedCall
	stats *Stats
	aq    *ActiveQuery
	ex    *algebra.ExplainNode
	// buf is QueryOptions.Buffer, set for the query itself alone;
	// written counts the results written to it.
	buf     *xmlparse.Buffer
	written int
}

// firstSlab is how many results the first slabs of a final-order
// answer's node sink hold (algebra.Builder grows them by half on each
// refill). Measured over answers of 10 to 49 rows of a three-element
// template, as cached-mix's misses are: 2 to 4 left the bytes allocated
// per answer below those of building from held bindings into exact
// slabs, and 6 or more above, as did doubling from any size.
const firstSlab = 3

// run executes one query (possibly correlated under an outer binding)
// and returns the constructed values in result order, or writes them
// into qs.buf and returns none.
func (e *Engine) run(qs *queryState, q *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
	ctx, access, actx := qs.ctx, qs.access, qs.actx
	stats, aq, ex := qs.stats, qs.aq, qs.ex
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	skip := e.skipUnfold
	e.mu.RUnlock()
	opts := e.opts
	opts.Parallelism = qs.par

	sp := obs.FromContext(ctx)
	aq.SetPhase("unfold")
	spUnfold := sp.StartChild("unfold")
	if qs.call != nil {
		spUnfold.SetBool("prepared", qs.call.hit)
	}
	rewrites, err := e.unfold(qs.call, q, skip)
	if err != nil {
		spUnfold.SetAttr("error", err.Error())
		spUnfold.Finish()
		return nil, err
	}
	spUnfold.SetInt("rewrites", int64(len(rewrites)))
	spUnfold.Finish()
	if stats != nil {
		stats.Rewrites = len(rewrites)
	}
	if ex != nil {
		ex.Detail = fmt.Sprintf("rewrites=%d", len(rewrites))
	}

	// The answer loop. Only the caller picks the sink: with a buffer every
	// row is written into it by its rewrite's CONSTRUCT program (the byte
	// sink) and no Values are returned; without one every row is built as
	// a Value by the program's Builder (the node sink). Either way a row
	// is written as it is pulled, unless the mediator sorts (an ORDER-BY
	// the single rewrite's source did not sort, or several rewrites). Then
	// each row's binding is held, its ORDER-BY keys evaluated as it is
	// pulled, nk per row into keys, and the rows are written after the
	// sort, which permutes them; ends says where each rewrite's rows end,
	// so that a row goes through its own rewrite's program or builder. A
	// final-order row's keys are evaluated just before it is written (a
	// key that fails fails the query either way). So in both sinks the
	// error reported is the first plan or key error in production order,
	// or else the first template error in answer order.
	var out []xmldm.Value
	var keys []xmldm.Value
	var sorts bool
	nk := len(q.OrderBy)
	// Held for a sort alone: the bindings, where each rewrite's rows end,
	// and each rewrite's program (with a buffer) or builder (without).
	var held []algebra.Binding
	var ends []int
	var progs []*algebra.Program
	var blds []*algebra.Builder
	appendKeys := func(b algebra.Binding, ri int) error {
		for _, key := range rewrites[ri].Query.OrderBy {
			v, err := algebra.Eval(actx, key.Expr, b)
			if err != nil {
				return err
			}
			keys = append(keys, v)
		}
		return nil
	}
	// write writes one row through prog into the buffer, or else through
	// bld into out. A row that fails fails the query, so what it leaves in
	// out or in the count is never read.
	write := func(b algebra.Binding, prog *algebra.Program, bld *algebra.Builder) error {
		if prog != nil {
			qs.written++
			return qs.buf.AppendChild(func(dst []byte) ([]byte, error) {
				return prog.Append(dst, actx, b)
			})
		}
		v, err := bld.Build(actx, b)
		out = append(out, v)
		return err
	}

	for ri, rw := range rewrites {
		spRw := sp.StartChildAt("rewrite", ri)
		planner := opt.New(e.cat, access)
		planner.Opts = opts
		var preBound []string
		var input algebra.Operator
		if outer != nil {
			preBound = outer.Names()
			input = &algebra.TupleScan{Tuples: []algebra.Binding{outer}}
		}
		aq.SetPhase("plan")
		spPlan := spRw.StartChild("plan")
		plan, err := planner.Plan(rw, preBound, input)
		if err != nil {
			spPlan.SetAttr("error", err.Error())
			spPlan.Finish()
			spRw.Finish()
			return nil, err
		}
		spPlan.SetInt("fetches", int64(len(plan.Fetches)))
		spPlan.SetAttr("sources", strings.Join(plan.Sources, ","))
		spPlan.Finish()
		if stats != nil {
			stats.Fetches += len(plan.Fetches)
		}
		sorts = nk > 0 && (len(rewrites) > 1 || !plan.OrderPushed)
		specs := make([]exec.FetchSpec, len(plan.Fetches))
		for i, f := range plan.Fetches {
			specs[i] = exec.FetchSpec{Source: f.Source, Req: f.Req}
		}
		aq.SetPhase("prefetch")
		spPre := spRw.StartChild("prefetch")
		spPre.SetInt("fetches", int64(len(specs)))
		if err := access.Prefetch(specs); err != nil {
			spPre.Finish()
			spRw.Finish()
			return nil, err
		}
		spPre.Finish()
		// A row written as it is pulled is done with once it is written, so
		// a fragment scan at the plan's root, or under a chain of Selects,
		// refills one tuple: a Select hands on the binding it was handed,
		// and its predicate, nested queries included, is done with it
		// before Next returns. Marked before the shims wrap the inputs.
		if !sorts {
			op := plan.Root
			for sel, ok := op.(*algebra.Select); ok; sel, ok = op.(*algebra.Select) {
				op = sel.Input
			}
			if scan, ok := op.(*algebra.FuncScan); ok {
				scan.Transient = true
			}
		}
		// The node sink ignores indentation: any program serves. A builder
		// for rows written as they are pulled starts at firstSlab results;
		// one for held rows is made once they are counted.
		var prog *algebra.Program
		var bld *algebra.Builder
		if qs.buf != nil {
			prog = qs.call.program(ri, plan.Construct, qs.buf.Indent())
		} else if !sorts {
			bld = qs.call.program(ri, plan.Construct, -1).Builder(firstSlab)
		}
		// The plan is instrumented before it runs — per-operator stats
		// accumulate into the EXPLAIN tree under the query root, and
		// QueryOpt's Finalize describes each operator once it has run.
		// The shims are transparent (1:1 Open/Next/Close delegation), so
		// lifecycle invariants and span names are unaffected.
		planRoot := plan.Root
		if ex != nil {
			var node *algebra.ExplainNode
			planRoot, node = algebra.Instrument(plan.Root)
			ex.Children = append(ex.Children, node)
		}
		// Operator evaluation records its span under this rewrite; the
		// previous parent (the query root, or an outer rewrite during
		// correlated subquery evaluation) is restored afterwards. The eval
		// span covers writing the rows written as they are pulled.
		prevTrace := actx.Trace
		actx.Trace = spRw
		aq.SetPhase("eval")
		start := len(held)
		_, err = algebra.Pull(actx, planRoot, func(b algebra.Binding) error {
			if sorts {
				held = append(held, b)
				return appendKeys(b, ri)
			}
			if nk > 0 {
				keys = keys[:0]
				if err := appendKeys(b, ri); err != nil {
					return err
				}
			}
			return write(b, prog, bld)
		})
		actx.Trace = prevTrace
		spRw.Finish()
		if err != nil {
			return nil, err
		}
		if sorts {
			ends = append(ends, len(held))
			progs = append(progs, prog)
			var sorted *algebra.Builder // not bld, which stays on the stack
			if prog == nil {
				sorted = qs.call.program(ri, plan.Construct, -1).Builder(len(held) - start)
			}
			blds = append(blds, sorted)
		}
	}

	if sorts {
		aq.SetPhase("sort")
		// Keys were evaluated serially as the rows were pulled, so the
		// comparator only reads them — safe for the parallel chunk sorts
		// of StableSortIndices, whose index tie-break keeps the held
		// order (rewrite by rewrite, in production order) among ties. The
		// comparator takes a copy of the slice header, so that keys itself
		// stays on the stack for every query.
		keys := keys
		perm := actx.SortIndices(len(held), qs.par, func(i, j int) int {
			for k, key := range q.OrderBy {
				c := xmldm.Compare(keys[i*nk+k], keys[j*nk+k])
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
		aq.SetPhase("construct")
		spCons := sp.StartChild("construct")
		defer spCons.Finish()
		if qs.buf == nil {
			out = make([]xmldm.Value, 0, len(held))
		}
		for _, i := range perm {
			ri, _ := slices.BinarySearch(ends, i+1)
			if err := write(held[i], progs[ri], blds[ri]); err != nil {
				return nil, err
			}
		}
		spCons.SetInt("values", int64(len(held)))
	}
	return out, nil
}

// materializeSchema computes a mediated schema's full document by
// running each of its view definitions; it is the fallback for patterns
// that could not be unfolded, and the producer for the materialized
// store.
func (e *Engine) materializeSchema(ctx context.Context, schema string, access *exec.Access) (*xmldm.Node, error) {
	e.inflightMu.Lock()
	set := e.inflight[access]
	if set == nil {
		set = map[string]bool{}
		e.inflight[access] = set
	}
	if set[schema] {
		e.inflightMu.Unlock()
		return nil, fmt.Errorf("core: cyclic materialization of schema %q", schema)
	}
	set[schema] = true
	e.inflightMu.Unlock()
	defer func() {
		e.inflightMu.Lock()
		delete(set, schema)
		if len(set) == 0 {
			delete(e.inflight, access)
		}
		e.inflightMu.Unlock()
	}()

	views, err := e.cat.Views(schema)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	funcs := e.funcs
	e.mu.RUnlock()
	actx := &algebra.Context{Funcs: funcs}
	qs := &queryState{ctx: ctx, access: access, actx: actx}
	actx.SubqueryEval = func(subq *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
		return e.run(qs, subq, outer)
	}
	root := &xmldm.Node{Name: schema}
	for _, vd := range views {
		vals, err := e.run(qs, vd.Query, nil)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			if n, ok := v.(*xmldm.Node); ok {
				n.Parent = root
				root.Children = append(root.Children, n)
			}
		}
	}
	xmldm.Finalize(root)
	return root, nil
}

// MaterializeSchema computes and returns a schema's document with a
// fresh access (public entry for the materialized-view manager).
func (e *Engine) MaterializeSchema(ctx context.Context, schema string) (*xmldm.Node, exec.Completeness, error) {
	access := e.runner.NewAccess(ctx, e.policy)
	doc, err := e.materializeSchema(ctx, schema, access)
	if err != nil {
		return nil, access.Report(), err
	}
	return doc, access.Report(), nil
}
