// Intra-query parallelism for the physical algebra. The design follows
// the exchange-operator tradition (Volcano) with a morsel-style twist:
// an Exchange drains its single-consumer input on a producer goroutine,
// routes each tuple to one of N workers (round-robin, or by hash of the
// partition variables so equal keys co-locate), and each worker runs a
// private clone of the per-tuple pipeline above it. Because every stage
// the planner parallelizes is tuple-at-a-time and order-preserving
// (Select, Project, Match over a bound variable), the outputs produced
// for input tuple k are a contiguous batch, and merging batches back in
// input-tuple order reconstructs the serial output exactly — parallel
// plans are byte-identical to their serial twins, which is what lets
// ordering-sensitive consumers (Sort, Limit, the top-level construct)
// ignore the parallelism entirely.
package algebra

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmldm"
)

// WorkerStat is one parallel worker's contribution to an operator:
// output rows and busy wall time (time spent processing tuples, not
// blocked on channels).
type WorkerStat struct {
	Worker int   `json:"worker"`
	Rows   int64 `json:"rows"`
	Nanos  int64 `json:"nanos"`
}

// workerStater is implemented by parallel operators; the EXPLAIN shim
// polls it after Close to attach per-worker rows/wall-time to the node.
type workerStater interface {
	WorkerStats() []WorkerStat
}

// PartitionKey hashes the named variables of a binding with FNV-1a —
// the same hash the hash join uses for its buckets, so a build row and
// the probe rows with equal join-variable values always land in the
// same partition.
func PartitionKey(b Binding, vars []string) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range vars {
		h = foldVar(h, b, v)
	}
	return h
}

// foldVar folds the hash of b's value for name into a key hash.
func foldVar(h uint64, b Binding, name string) uint64 {
	val, _ := b.Get(name)
	return h*1099511628211 ^ xmldm.Hash(val)
}

// PartitionOf maps a partition key onto one of n partitions.
func PartitionOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(key % uint64(n))
}

// outBatch is the complete output of one worker for one input tuple.
type outBatch struct {
	outs []Binding
	err  error
}

// chanBuf is the per-channel buffer depth of the fan-out machinery —
// enough to keep workers busy without materializing whole streams.
const chanBuf = 64

// fanout is the shared fan-out/merge machinery behind Exchange and the
// partitioned HashJoin. The producer routes each input tuple to a worker
// and records the route; the merger replays the routes in input order,
// reading exactly one batch per route, so output order equals serial
// evaluation order regardless of worker scheduling. The producer sends
// the route before the tuple: the merger always learns where to wait
// before a worker can be blocked producing it, which makes the
// backpressure loop deadlock-free.
type fanout struct {
	routes chan int
	parts  []chan Binding
	outs   []chan outBatch
	done   chan struct{}
	errc   chan error
	wg     sync.WaitGroup
	cur    []Binding
	stats  []WorkerStat
}

func newFanout(workers int) *fanout {
	f := &fanout{
		routes: make(chan int, chanBuf*workers),
		parts:  make([]chan Binding, workers),
		outs:   make([]chan outBatch, workers),
		done:   make(chan struct{}),
		errc:   make(chan error, 1),
		stats:  make([]WorkerStat, workers),
	}
	for i := range f.parts {
		f.parts[i] = make(chan Binding, chanBuf)
		f.outs[i] = make(chan outBatch, chanBuf)
	}
	return f
}

// produce drains next (the upstream single-consumer stream) on its own
// goroutine, routing every tuple via route. An upstream error is
// reported in input order through the -1 route sentinel, so the merger
// surfaces it only after every earlier tuple's outputs.
func (f *fanout) produce(next func() (Binding, error), route func(Binding) int) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer func() {
			for _, p := range f.parts {
				close(p)
			}
			close(f.routes)
		}()
		for {
			b, err := next()
			if err != nil {
				f.errc <- err
				select {
				case f.routes <- -1:
				case <-f.done:
				}
				return
			}
			if b == nil {
				return
			}
			p := route(b)
			select {
			case f.routes <- p:
			case <-f.done:
				return
			}
			select {
			case f.parts[p] <- b:
			case <-f.done:
				return
			}
		}
	}()
}

// runWorkers starts the worker pool. mk builds worker w's processing
// function (one input tuple in, its complete output batch out) plus an
// optional cleanup; an mk error poisons the worker, which then answers
// every routed tuple with that error so the merge stays aligned.
func (f *fanout) runWorkers(workers int, mk func(w int) (func(Binding) ([]Binding, error), func(), error)) {
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer f.wg.Done()
			var rows, busy int64
			defer func() {
				f.stats[w] = WorkerStat{Worker: w, Rows: rows, Nanos: busy}
			}()
			process, cleanup, err := mk(w)
			if cleanup != nil {
				defer cleanup()
			}
			for b := range f.parts[w] {
				var bt outBatch
				if err != nil {
					bt.err = err
				} else {
					start := time.Now()
					bt.outs, bt.err = process(b)
					busy += time.Since(start).Nanoseconds()
				}
				rows += int64(len(bt.outs))
				select {
				case f.outs[w] <- bt:
				case <-f.done:
					return
				}
				if bt.err != nil {
					err = bt.err // later tuples answer the same error
				}
			}
		}(w)
	}
}

// next merges worker outputs back into input order.
func (f *fanout) next() (Binding, error) {
	for {
		if len(f.cur) > 0 {
			b := f.cur[0]
			f.cur = f.cur[1:]
			return b, nil
		}
		r, ok := <-f.routes
		if !ok {
			return nil, nil
		}
		if r < 0 {
			return nil, <-f.errc
		}
		bt := <-f.outs[r]
		if bt.err != nil {
			return nil, bt.err
		}
		f.cur = bt.outs
	}
}

// stop tears the machinery down: unblocks every goroutine and waits for
// them, so the caller may safely close the upstream input afterwards.
func (f *fanout) stop() {
	close(f.done)
	f.wg.Wait()
	f.cur = nil
}

// finish stops the pool and settles its accounts with the context: the
// workers' busy time is recorded and the worker gauge credited back.
func (f *fanout) finish(ctx *Context) {
	f.stop()
	var busy int64
	for _, ws := range f.stats {
		busy += ws.Nanos
	}
	ctx.AddWorkerTime(busy)
	ctx.AddWorkers(-len(f.stats))
}

// buffered reports the merge-side buffer (owned by the consumer
// goroutine, so safe to poll from the instrumentation shim).
func (f *fanout) buffered() int { return len(f.cur) }

// feedLeaf is the per-worker pipeline source: the worker loads one
// tuple, drains the pipeline above it, loads the next. It does not
// count tuples — the exchange's upstream input already did.
type feedLeaf struct {
	b    Binding
	open bool
}

func (l *feedLeaf) Open(*Context) error { l.open = true; return nil }

func (l *feedLeaf) Next() (Binding, error) {
	if !l.open {
		return nil, ErrNotOpen
	}
	b := l.b
	l.b = nil
	return b, nil
}

func (l *feedLeaf) Close() error { l.open = false; return nil }

// Exchange fans its input stream across Workers goroutines, each
// running a private pipeline built by Build over the routed tuples, and
// merges the outputs back in input order. With PartitionBy set, tuples
// are routed by hash of those variables (equal keys co-locate — the
// layout partitioned joins and distincts need); otherwise round-robin.
//
// Build must construct fresh operator instances (workers must not share
// mutable state); the planner clones per-tuple stages — Select, Project,
// Match over a bound variable — whose shared predicate/pattern values
// are read-only under evaluation.
type Exchange struct {
	Input       Operator
	Workers     int
	Build       func(src Operator) Operator
	PartitionBy []string

	ctx     *Context
	fan     *fanout
	workers int
	rr      uint64
	sp      traceSpan
}

// traceSpan is the minimal span surface parallel operators touch; it
// keeps the obs import localized to op.go.
type traceSpan interface {
	SetAttr(key, value string)
	SetInt(key string, v int64)
	Finish()
}

// Open implements Operator: it opens the input, then starts the
// producer and the worker pool.
func (x *Exchange) Open(ctx *Context) error {
	if err := x.Input.Open(ctx); err != nil {
		return err
	}
	x.ctx = ctx
	x.workers = x.Workers
	if x.workers < 1 {
		x.workers = 1
	}
	x.rr = 0
	x.fan = newFanout(x.workers)
	if sp := ctx.Trace.StartChild("exchange"); sp != nil {
		sp.SetInt("workers", int64(x.workers))
		if len(x.PartitionBy) > 0 {
			sp.SetAttr("partition", "hash("+strings.Join(x.PartitionBy, ",")+")")
		} else {
			sp.SetAttr("partition", "round-robin")
		}
		x.sp = sp
	}
	ctx.AddWorkers(x.workers)

	route := func(b Binding) int {
		if len(x.PartitionBy) > 0 {
			return PartitionOf(PartitionKey(b, x.PartitionBy), x.workers)
		}
		p := int(x.rr % uint64(x.workers))
		x.rr++
		return p
	}
	x.fan.runWorkers(x.workers, func(int) (func(Binding) ([]Binding, error), func(), error) {
		leaf := &feedLeaf{}
		pipe := x.Build(leaf)
		if err := pipe.Open(ctx); err != nil {
			return nil, nil, err
		}
		process := func(b Binding) ([]Binding, error) {
			leaf.b = b
			var outs []Binding
			for {
				ob, err := pipe.Next()
				if err != nil {
					return outs, err
				}
				if ob == nil {
					return outs, nil
				}
				outs = append(outs, ob)
			}
		}
		return process, func() { pipe.Close() }, nil
	})
	x.fan.produce(x.Input.Next, route)
	return nil
}

// Next implements Operator.
func (x *Exchange) Next() (Binding, error) {
	if x.ctx == nil {
		return nil, ErrNotOpen
	}
	return x.fan.next()
}

// BufferedTuples reports the merge-side batch buffer.
func (x *Exchange) BufferedTuples() int {
	if x.fan == nil {
		return 0
	}
	return x.fan.buffered()
}

// WorkerStats reports per-worker rows and busy time; valid after Close.
func (x *Exchange) WorkerStats() []WorkerStat {
	if x.fan == nil {
		return nil
	}
	return x.fan.stats
}

// Close implements Operator.
func (x *Exchange) Close() error {
	// x.ctx doubles as the "already closed" marker: a second Close (a
	// defensive caller, or an error path that already tore down the
	// tree) must not stop the fanout again or re-credit the worker
	// gauge. x.fan stays set so WorkerStats remains readable after
	// Close.
	if x.fan != nil && x.ctx != nil {
		x.fan.finish(x.ctx)
		if x.sp != nil {
			for _, ws := range x.fan.stats {
				x.sp.SetInt(fmt.Sprintf("worker%d_rows", ws.Worker), ws.Rows)
			}
			x.sp.Finish()
			x.sp = nil
		}
	}
	x.ctx = nil
	return x.Input.Close()
}

// startParallel is HashJoin at Workers > 1: the right side is split into
// Workers per-partition hash tables by join-key hash, the left stream is
// routed by the same hash, and each worker probes only its own table.
// Because all rows with one join-key hash live in one partition, and
// bucket lists preserve right-input order, the merged output is
// byte-identical to the serial loop.
func (j *HashJoin) startParallel() {
	workers := j.Workers
	// Partition the build side: precompute every row's key hash in
	// parallel chunks, then each worker keeps its partition's rows in
	// right-input order (bucket order is what makes output identical to
	// the serial join).
	keys := make([]uint64, len(j.right))
	chunk := (len(j.right) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(j.right); lo += chunk {
		hi := lo + chunk
		if hi > len(j.right) {
			hi = len(j.right)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				keys[i] = j.keyOf(j.right[i], true)
			}
		}(lo, hi)
	}
	wg.Wait()
	tables := make([]map[uint64][]Binding, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := make(map[uint64][]Binding)
			for i, r := range j.right {
				if PartitionOf(keys[i], workers) == w {
					t[keys[i]] = append(t[keys[i]], r)
				}
			}
			tables[w] = t
		}(w)
	}
	wg.Wait()

	if sp := j.ctx.Trace.StartChild("exchange"); sp != nil {
		sp.SetAttr("op", "HashJoin")
		sp.SetInt("workers", int64(workers))
		sp.SetAttr("partition", "hash("+keyString(j.vars, j.Pairs)+")")
		sp.SetInt("build_rows", int64(len(j.right)))
		j.sp = sp
	}
	j.ctx.AddWorkers(workers)
	j.fan = newFanout(workers)
	j.fan.runWorkers(workers, func(w int) (func(Binding) ([]Binding, error), func(), error) {
		table := tables[w]
		return func(l Binding) ([]Binding, error) { return j.probe(table, l, nil), nil }, nil, nil
	})
	j.fan.produce(j.nextLeft, func(l Binding) int {
		return PartitionOf(j.keyOf(l, false), workers)
	})
}

// WorkerStats reports per-worker probe rows and busy time when the
// join ran partitioned; valid after Close.
func (j *HashJoin) WorkerStats() []WorkerStat {
	if j.fan == nil {
		return nil
	}
	return j.fan.stats
}

// StableSortIndices returns the permutation that sorts n items under
// cmp (cmp(i,j) < 0 puts i first) with ties resolved by original index
// — exactly the order sort.SliceStable produces. With workers > 1 the
// index space is chunk-sorted in parallel and the sorted runs merged;
// because the index tie-break makes the order total, the merged result
// is deterministic and identical to the serial sort. cmp must be safe
// for concurrent calls (compare precomputed keys, not live state).
func StableSortIndices(n, workers int, cmp func(i, j int) int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		if c := cmp(a, b); c != 0 {
			return c < 0
		}
		return a < b
	}
	if workers <= 1 || n < 2*workers {
		sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return idx
	}
	// Parallel partial sorts over equal chunks…
	chunk := (n + workers - 1) / workers
	var bounds [][2]int
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := idx[lo:hi]
			sort.Slice(s, func(a, b int) bool { return less(s[a], s[b]) })
		}(lo, hi)
	}
	wg.Wait()
	// …feeding a single k-way merge.
	out := make([]int, 0, n)
	heads := make([]int, len(bounds))
	for {
		best := -1
		for r, h := range heads {
			if h >= bounds[r][1]-bounds[r][0] {
				continue
			}
			if best == -1 || less(idx[bounds[r][0]+h], idx[bounds[best][0]+heads[best]]) {
				best = r
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, idx[bounds[best][0]+heads[best]])
		heads[best]++
	}
}

// matchParallel evaluates the candidate elements of a leaf Match across
// the worker pool: candidates are claimed by atomic index into a result
// table, then concatenated in candidate order — the exact order the
// serial candidate loop produces.
func matchParallel(ctx *Context, cands []candidate, base Binding, workers int, stats *[]WorkerStat) ([]Binding, error) {
	results := make([][]Binding, len(cands))
	errs := make([]error, len(cands))
	ws := make([]WorkerStat, workers)
	var next int64
	ctx.AddWorkers(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			var rows int64
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= len(cands) {
					break
				}
				bs, err := matchElement(ctx, cands[i].elem, cands[i].pat, base)
				results[i] = bs
				errs[i] = err
				rows += int64(len(bs))
			}
			ws[w] = WorkerStat{Worker: w, Rows: rows, Nanos: time.Since(start).Nanoseconds()}
		}(w)
	}
	wg.Wait()
	var busy int64
	for _, s := range ws {
		busy += s.Nanos
	}
	ctx.AddWorkerTime(busy)
	ctx.AddWorkers(-workers)
	if stats != nil {
		*stats = append(*stats, ws...)
	}
	// The first error in candidate order wins, matching serial
	// evaluation (which stops there).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []Binding
	for _, bs := range results {
		out = append(out, bs...)
	}
	return out, nil
}
