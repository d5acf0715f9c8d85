// Intra-query parallelism for the physical algebra. Two things take a
// degree: HashJoin (left rows probed in slabs against the shared table)
// and the final ORDER-BY sort (chunk sorts plus a merge). Each asks the
// scheduler for workers only once the input it holds when it starts
// reaches its own crossover — the size from which degree 2 measured
// faster than degree 1 in BenchmarkParallelCrossover (DESIGN §12 has the
// table) — holds the grant while it spends it, and runs serially below
// it without touching the scheduler. Each merges back in input order, so
// the output at any degree is byte-identical to the serial operator's —
// which is what lets ordering-sensitive consumers (the ORDER-BY sort,
// the top-level construct) ignore the parallelism entirely. Everything
// else runs serially: the per-tuple stages (Select, Match over a bound
// variable) cost less than handing tuples to a worker, and the leaf
// Match fan-out lost to the serial loop at every size the sweep tried.
package algebra

import (
	"sort"
	"sync"
	"time"

	"repro/internal/sched"
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

// The gates the operators read: their crossovers, which only in-package
// tests and the crossover sweep lower.
var (
	joinGate = joinParallelMin
	sortGate = sortParallelMin
)

// acquire is the one place an operator asks for workers. Past its gate
// (n ≥ gate), wanting more than one and with a scheduler to ask, it
// acquires want under the context's class; the operator holds the grant
// while it spends it. Otherwise it returns nil — serial — without
// touching the scheduler. Grant methods are nil-safe.
func (c *Context) acquire(want, n, gate int) *sched.Grant {
	if n < gate || want <= 1 || c.Sched == nil {
		return nil
	}
	return c.Sched.Acquire(want, c.Class)
}

// PartitionKey hashes the named variables of a binding with FNV-1a —
// the hash the hash join keys its buckets by.
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

// joinParallelMin is the HashJoin crossover, in build rows: DESIGN §12's
// table has slab probing at degree 2 ahead of the serial loop from here
// on, 1.33× at this size.
const joinParallelMin = 2048

// slabRows is how many left rows travel to a probe worker at once: one
// channel hand-off and one merge step per slab, not per row.
const slabRows = 256

// slab is one hand-off of the parallel probe: up to slabRows left rows in
// input order, the worker's output for them, and the left input's error
// when it ended the slab.
type slab struct {
	in   []Binding
	out  []Binding
	err  error
	done chan struct{} // closed once out is complete
}

// probePool is HashJoin's probe at degree > 1. A producer reads the left
// input into slabs and hands each one to the merger's queue and then to
// the workers, which probe the shared, read-only table; the merger
// replays the queue, waiting for each slab in turn, so the output is the
// serial loop's sequence whichever worker probed what. The queue is sent
// before the work: the slab the merger waits for is always with a worker
// or done, which makes the bounded queue deadlock-free.
type probePool struct {
	grant *sched.Grant // the workers, held until finish
	queue chan *slab
	work  chan *slab
	stop  chan struct{}
	wg    sync.WaitGroup
	cur   []Binding
	err   error
	stats []WorkerStat
}

// fanOut asks the scheduler for the join's workers once the table is
// built. The exchange span records the degree wanted and granted. A join
// granted more than one worker starts the probe pool over the table,
// which holds the grant until finish; one granted a single worker gives
// it back at once and probes serially.
func (j *HashJoin) fanOut() {
	g := j.ctx.acquire(j.Workers, len(j.right), joinGate)
	if g == nil {
		return
	}
	j.granted = g.Degree()
	j.sp = j.ctx.Trace.StartChild("exchange")
	j.sp.SetAttr("op", "HashJoin")
	j.sp.SetInt("want", int64(j.Workers))
	j.sp.SetInt("granted", int64(j.granted))
	j.sp.SetInt("build_rows", int64(len(j.right)))
	workers := j.granted
	if workers == 1 {
		g.Release()
		j.sp.Finish()
		return
	}
	p := &probePool{
		grant: g,
		// Two slabs in flight per worker: one being probed, one read and
		// waiting, so no worker idles while the merger drains the oldest.
		queue: make(chan *slab, 2*workers),
		work:  make(chan *slab),
		stop:  make(chan struct{}),
		stats: make([]WorkerStat, workers),
	}
	j.ctx.AddWorkers(workers)
	p.wg.Add(workers + 1)
	for w := range p.stats {
		go p.probe(w, func(l Binding, out []Binding) []Binding { return j.probe(j.table, l, out) })
	}
	go p.produce(j.nextLeft)
	j.pool = p
}

// produce reads the left input into slabs on its own goroutine. A left
// error ends the slab it falls in, so the merger returns it after every
// earlier row's output, as the serial loop does.
func (p *probePool) produce(next func() (Binding, error)) {
	defer p.wg.Done()
	defer close(p.work)
	defer close(p.queue)
	for {
		s := &slab{in: make([]Binding, 0, slabRows), done: make(chan struct{})}
		for len(s.in) < slabRows {
			b, err := next()
			if b == nil {
				s.err = err
				break
			}
			s.in = append(s.in, b)
		}
		last := len(s.in) < slabRows
		if last && len(s.in) == 0 && s.err == nil {
			return
		}
		select {
		case p.queue <- s:
		case <-p.stop:
			return
		}
		select {
		case p.work <- s:
		case <-p.stop:
			return
		}
		if last {
			return
		}
	}
}

// probe is worker w: it answers every slab it takes with probe's output
// for the slab's rows, in order.
func (p *probePool) probe(w int, probe func(l Binding, out []Binding) []Binding) {
	defer p.wg.Done()
	var rows, busy int64
	for s := range p.work {
		start := time.Now()
		for _, l := range s.in {
			s.out = probe(l, s.out)
		}
		busy += time.Since(start).Nanoseconds()
		rows += int64(len(s.out))
		close(s.done)
	}
	p.stats[w] = WorkerStat{Worker: w, Rows: rows, Nanos: busy}
}

// next replays the slabs in input order.
func (p *probePool) next() (Binding, error) {
	for len(p.cur) == 0 {
		if p.err != nil {
			return nil, p.err
		}
		s, ok := <-p.queue
		if !ok {
			return nil, nil
		}
		<-s.done
		p.cur, p.err = s.out, s.err
	}
	b := p.cur[0]
	p.cur = p.cur[1:]
	return b, nil
}

// finish stops the pool — unblocks the producer and waits for it and
// every worker, so the caller may close the left input afterwards — gives
// the workers back to the scheduler, and settles with the context: the
// workers' busy time is recorded and the worker gauge credited back.
func (p *probePool) finish(ctx *Context) {
	close(p.stop)
	p.wg.Wait()
	p.grant.Release()
	p.cur = nil
	var busy int64
	for _, ws := range p.stats {
		busy += ws.Nanos
	}
	ctx.AddWorkerTime(busy)
	ctx.AddWorkers(-len(p.stats))
}

// WorkerStats reports per-worker probe rows and busy time when the
// join probed in parallel; valid after Close.
func (j *HashJoin) WorkerStats() []WorkerStat {
	if j.pool == nil {
		return nil
	}
	return j.pool.stats
}

// sortParallelMin is the StableSortIndices crossover, in items: DESIGN
// §12's table has the chunk sorts and merge at degree 2 ahead of one sort
// from here on.
const sortParallelMin = 128

// SortIndices is StableSortIndices at the degree the context's scheduler
// grants a sort that wants workers, asked for only from the sort's gate
// on and given back when the sort returns.
func (c *Context) SortIndices(n, want int, cmp func(i, j int) int) []int {
	g := c.acquire(want, n, sortGate)
	defer g.Release()
	return StableSortIndices(n, g.Degree(), cmp)
}

// StableSortIndices returns the permutation that sorts n items under
// cmp (cmp(i,j) < 0 puts i first) with ties resolved by original index
// — exactly the order sort.SliceStable produces. Given workers > 1 and
// n at least its crossover, the index space is chunk-sorted in parallel
// and the sorted runs merged; because the index tie-break makes the
// order total, the merged result is deterministic and identical to the
// serial sort. cmp must be safe for concurrent calls (compare
// precomputed keys, not live state).
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
	if workers <= 1 || n < sortGate {
		sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return idx
	}
	// Parallel partial sorts over equal chunks…
	chunk := (n + workers - 1) / workers
	var bounds [][2]int
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
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
