// Package algebra implements the physical algebra of the integration
// engine. As §3.1 of the paper describes, the system deliberately has no
// logical algebra: queries compile from the XML-QL AST through a
// normalized internal form directly to trees of the physical operators
// defined here, which the query processor executes.
//
// Operators are demand-driven (Volcano-style) iterators over bindings. A
// binding is an xmldm.Tuple mapping variable names to values; operators
// extend, filter and join them, and a Builder turns each binding into
// result XML. An ORDER-BY sort is not an operator: the engine (core)
// orders the built results itself.
package algebra

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Binding is one assignment of values to query variables.
type Binding = *xmldm.Tuple

// Context carries per-query execution state through an operator tree.
type Context struct {
	// SubqueryEval evaluates a correlated nested query (used by nested
	// construct templates and aggregate expressions) under the given
	// outer binding, returning the constructed values. The execution
	// layer installs it; a nil SubqueryEval makes nested queries fail.
	SubqueryEval func(q *xmlql.Query, outer Binding) ([]xmldm.Value, error)

	// Funcs adds or overrides scalar functions visible to expression
	// evaluation; cleaning installs normalization functions here so that
	// queries can call them "dynamically" (§3.2).
	Funcs map[string]func(args []xmldm.Value) (xmldm.Value, error)

	// Trace, when set, is the parent span under which Drain records one
	// evaluation span per operator tree (the zero handle disables).
	Trace obs.SpanRef

	// OnWorkers, when set, observes parallel worker-pool size changes:
	// +n when a parallel operator spawns its pool, -n when the
	// pool tears down. The engine wires the nimble_parallel_workers
	// gauge here. Calls may come from any goroutine driving the plan.
	OnWorkers func(delta int)

	// Sched is the worker budget an operator past its gate acquires from,
	// under Class (parallel.go); nil runs every operator serially.
	Sched *sched.Scheduler
	Class sched.Class

	stats Stats
}

// Stats counts work done under one Context.
type Stats struct {
	TuplesEmitted  int64 // bindings produced by leaf operators
	PatternMatches int64 // element pattern match attempts
	DrainNanos     int64 // wall time spent draining operator trees
	OperatorsRun   int64 // operators in the drained trees
	// WorkersSpawned / WorkerNanos count the workers parallel operators
	// spawned and their cumulative busy wall time.
	WorkersSpawned int64
	WorkerNanos    int64
	// BindJoins / BindFallbacks count bind joins by outcome: right side
	// fetched by the left side's keys, or whole after all.
	BindJoins     int64
	BindFallbacks int64
}

// AddTuples adds to the emitted-tuple counter (atomically).
func (c *Context) AddTuples(n int64) { atomic.AddInt64(&c.stats.TuplesEmitted, n) }

// AddMatches adds to the pattern-match counter (atomically).
func (c *Context) AddMatches(n int64) { atomic.AddInt64(&c.stats.PatternMatches, n) }

// AddDrain records one completed operator-tree drain: its wall time and
// the number of operators in the tree (atomically).
func (c *Context) AddDrain(d time.Duration, ops int64) {
	atomic.AddInt64(&c.stats.DrainNanos, d.Nanoseconds())
	atomic.AddInt64(&c.stats.OperatorsRun, ops)
}

// AddWorkers records a parallel worker-pool size change: positive
// deltas count toward WorkersSpawned, and the OnWorkers observer (the
// engine's nimble_parallel_workers gauge) sees every change.
func (c *Context) AddWorkers(delta int) {
	if delta > 0 {
		atomic.AddInt64(&c.stats.WorkersSpawned, int64(delta))
	}
	if c.OnWorkers != nil {
		c.OnWorkers(delta)
	}
}

// AddWorkerTime accumulates parallel-worker busy wall time (atomically).
func (c *Context) AddWorkerTime(nanos int64) {
	atomic.AddInt64(&c.stats.WorkerNanos, nanos)
}

// Snapshot returns a copy of the counters.
func (c *Context) Snapshot() Stats {
	return Stats{
		TuplesEmitted:  atomic.LoadInt64(&c.stats.TuplesEmitted),
		PatternMatches: atomic.LoadInt64(&c.stats.PatternMatches),
		DrainNanos:     atomic.LoadInt64(&c.stats.DrainNanos),
		OperatorsRun:   atomic.LoadInt64(&c.stats.OperatorsRun),
		WorkersSpawned: atomic.LoadInt64(&c.stats.WorkersSpawned),
		WorkerNanos:    atomic.LoadInt64(&c.stats.WorkerNanos),
		BindJoins:      atomic.LoadInt64(&c.stats.BindJoins),
		BindFallbacks:  atomic.LoadInt64(&c.stats.BindFallbacks),
	}
}

// Operator is a physical operator: Open, a sequence of Next calls each
// returning one binding (nil at end of stream), then Close. Operators
// are single-consumer and not safe for concurrent Next calls.
type Operator interface {
	Open(ctx *Context) error
	Next() (Binding, error)
	Close() error
}

// ErrNotOpen is returned by Next on an operator that was never opened.
var ErrNotOpen = errors.New("algebra: operator not open")

// Drain runs an operator to completion and returns all bindings. When
// ctx carries a trace span, the evaluation is recorded as a child span
// named after the root operator with the binding count and the work
// counters it added.
func Drain(ctx *Context, op Operator) ([]Binding, error) {
	var out []Binding
	if _, err := Pull(ctx, op, func(b Binding) error {
		out = append(out, b)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Pull runs an operator to completion and hands each binding to fn as it
// is produced, holding none of them: an error from the operator or from
// fn stops it (the operator is closed either way), and it reports how
// many bindings fn accepted. It is recorded as Drain is, and the time fn
// takes counts as the tree's.
func Pull(ctx *Context, op Operator, fn func(Binding) error) (int, error) {
	sp := ctx.Trace.StartChildFor("eval ", opName(op))
	before := ctx.Snapshot()
	start := time.Now()
	n, err := pull(ctx, op, fn)
	elapsed := time.Since(start)
	ctx.AddDrain(elapsed, int64(CountOps(op)))
	if !sp.IsZero() {
		after := ctx.Snapshot()
		sp.SetInt("bindings", int64(n))
		sp.SetInt("tuples", after.TuplesEmitted-before.TuplesEmitted)
		sp.SetInt("matches", after.PatternMatches-before.PatternMatches)
		sp.SetInt("operators", int64(CountOps(op)))
		sp.SetInt("elapsed_us", elapsed.Microseconds())
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	sp.Finish()
	return n, err
}

func pull(ctx *Context, op Operator, fn func(Binding) error) (int, error) {
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	defer op.Close()
	for n := 0; ; n++ {
		b, err := op.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		if err := fn(b); err != nil {
			return n, err
		}
	}
}

// opName names an operator for trace spans and EXPLAIN lines
// ("Match", "HashJoin", …); instrumentation shims are transparent.
func opName(op Operator) string {
	if inst, ok := op.(*Instrumented); ok {
		return opName(inst.Inner)
	}
	return strings.TrimPrefix(reflect.TypeOf(op).String(), "*algebra.")
}

// TupleScan replays a materialized slice of bindings; it is the leaf for
// locally stored data and for testing operator trees.
type TupleScan struct {
	Tuples []Binding
	ctx    *Context
	pos    int
}

// Open implements Operator.
func (s *TupleScan) Open(ctx *Context) error {
	s.ctx = ctx
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *TupleScan) Next() (Binding, error) {
	if s.ctx == nil {
		return nil, ErrNotOpen
	}
	if s.pos >= len(s.Tuples) {
		return nil, nil
	}
	b := s.Tuples[s.pos]
	s.pos++
	s.ctx.AddTuples(1)
	return b, nil
}

// Close implements Operator.
func (s *TupleScan) Close() error {
	s.ctx = nil
	return nil
}

// FuncScan adapts a pull function into a leaf operator; source wrappers
// and caches plug in here.
type FuncScan struct {
	// OpenFn is called at Open and returns the pull function; each call
	// to the pull function returns the next binding or nil at end.
	OpenFn func(ctx *Context) (func() (Binding, error), error)
	// CloseFn, if set, is called at Close.
	CloseFn func() error
	// Detail, if set, describes the access path for EXPLAIN. It is read
	// once the scan has run, so it can report a request settled only at
	// Open.
	Detail func() string
	// Transient, set before Open by a consumer that is done with each
	// binding before it asks for the next and keeps none of them (the
	// streamed answer's builder), lets OpenFn return a pull function that
	// refills one tuple instead of making one per row.
	Transient bool

	ctx  *Context
	pull func() (Binding, error)
}

// Open implements Operator.
func (s *FuncScan) Open(ctx *Context) error {
	pull, err := s.OpenFn(ctx)
	if err != nil {
		return err
	}
	s.ctx = ctx
	s.pull = pull
	return nil
}

// Next implements Operator.
func (s *FuncScan) Next() (Binding, error) {
	if s.pull == nil {
		return nil, ErrNotOpen
	}
	b, err := s.pull()
	if err != nil {
		return nil, err
	}
	if b != nil {
		s.ctx.AddTuples(1)
	}
	return b, nil
}

// Close implements Operator.
func (s *FuncScan) Close() error {
	s.pull = nil
	s.ctx = nil
	if s.CloseFn != nil {
		return s.CloseFn()
	}
	return nil
}

// Singleton emits exactly one empty binding: the identity input for a
// query whose first pattern scans a source.
type Singleton struct {
	done bool
	open bool
}

// Open implements Operator.
func (s *Singleton) Open(*Context) error {
	s.done = false
	s.open = true
	return nil
}

// Next implements Operator.
func (s *Singleton) Next() (Binding, error) {
	if !s.open {
		return nil, ErrNotOpen
	}
	if s.done {
		return nil, nil
	}
	s.done = true
	return xmldm.NewTuple(), nil
}

// Close implements Operator.
func (s *Singleton) Close() error {
	s.open = false
	return nil
}
