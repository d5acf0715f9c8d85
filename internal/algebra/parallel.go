// Intra-query parallelism for the physical algebra. Three things take a
// degree: the partitioned HashJoin (build and probe split by join-key
// hash), the source-scan Match (candidate elements claimed by index) and
// the final ORDER-BY sort (chunk sorts plus a merge). Each knows its exact
// input at run time and merges back in input order, so the output at any
// degree is byte-identical to the serial operator's — which is what lets
// ordering-sensitive consumers (Sort, Limit, the top-level construct)
// ignore the parallelism entirely. The per-tuple stages between them
// (Select, Project, Match over a bound variable) run serially: handing
// one tuple at a time to a worker costs more than those stages do
// (DESIGN §12 has the measurements).
package algebra

import (
	"sort"
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

// chanBuf is the per-channel buffer depth of the fan-out machinery —
// enough to keep workers busy without materializing whole streams.
const chanBuf = 64

// fanout is the fan-out/merge machinery of the partitioned HashJoin. The
// producer routes each left tuple to a worker and records the route; the
// merger replays the routes in input order, reading exactly one batch
// (the tuple's complete probe output) per route, so output order equals
// serial evaluation order regardless of worker scheduling. The producer
// sends the route before the tuple: the merger always learns where to
// wait before a worker can be blocked producing it, which makes the
// backpressure loop deadlock-free.
type fanout struct {
	routes chan int
	parts  []chan Binding
	outs   []chan []Binding
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
		outs:   make([]chan []Binding, workers),
		done:   make(chan struct{}),
		errc:   make(chan error, 1),
		stats:  make([]WorkerStat, workers),
	}
	for i := range f.parts {
		f.parts[i] = make(chan Binding, chanBuf)
		f.outs[i] = make(chan []Binding, chanBuf)
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

// runWorkers starts the worker pool: worker w answers every tuple routed
// to it with probe(w, tuple), the tuple's complete output batch.
func (f *fanout) runWorkers(probe func(w int, l Binding) []Binding) {
	f.wg.Add(len(f.parts))
	for w := range f.parts {
		go func(w int) {
			defer f.wg.Done()
			var rows, busy int64
			defer func() {
				f.stats[w] = WorkerStat{Worker: w, Rows: rows, Nanos: busy}
			}()
			for l := range f.parts[w] {
				start := time.Now()
				outs := probe(w, l)
				busy += time.Since(start).Nanoseconds()
				rows += int64(len(outs))
				select {
				case f.outs[w] <- outs:
				case <-f.done:
					return
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
		f.cur = <-f.outs[r]
	}
}

// finish tears the machinery down — unblocks every goroutine and waits
// for them, so the caller may safely close the upstream input afterwards
// — and settles its accounts with the context: the workers' busy time is
// recorded and the worker gauge credited back.
func (f *fanout) finish(ctx *Context) {
	close(f.done)
	f.wg.Wait()
	f.cur = nil
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

	if j.sp = j.ctx.Trace.StartChild("exchange"); j.sp != nil {
		j.sp.SetAttr("op", "HashJoin")
		j.sp.SetInt("workers", int64(workers))
		j.sp.SetAttr("partition", "hash("+keyString(j.vars, j.Pairs)+")")
		j.sp.SetInt("build_rows", int64(len(j.right)))
	}
	j.ctx.AddWorkers(workers)
	j.fan = newFanout(workers)
	j.fan.runWorkers(func(w int, l Binding) []Binding { return j.probe(tables[w], l, nil) })
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

// matchParallel matches the candidate elements of one input binding of a
// leaf Match across the worker pool: workers claim candidates by atomic
// index, each with its own matcher appending to its own slab of
// bindings, and the runs each candidate left in a slab are concatenated
// onto out in candidate order — the exact order the serial loop
// produces.
func (m *Match) matchParallel(cands []*xmldm.Node, base Binding, out []Binding) ([]Binding, error) {
	workers := m.Workers
	if len(m.par) != workers {
		m.par = make([]matcher, workers)
	}
	type run struct{ w, lo, hi int }
	runs := make([]run, len(cands))
	failed := make([]int, workers) // candidate at which each worker stopped on an error
	errs := make([]error, workers)
	ws := make([]WorkerStat, workers)
	var next atomic.Int64
	ctx := m.ctx
	ctx.AddWorkers(workers)
	var wg sync.WaitGroup
	for w := range m.par {
		wg.Add(1)
		go func(w int, mt *matcher) {
			defer wg.Done()
			start := time.Now()
			mt.begin(base, mt.out[:0])
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cands) {
					break
				}
				lo := len(mt.out)
				if err := mt.elem(cands[i], m.Pattern); err != nil {
					failed[w], errs[w] = i, err
					break
				}
				runs[i] = run{w, lo, len(mt.out)}
			}
			mt.end(ctx)
			ws[w] = WorkerStat{Worker: w, Rows: int64(len(mt.out)), Nanos: time.Since(start).Nanoseconds()}
		}(w, &m.par[w])
	}
	wg.Wait()
	var busy int64
	for _, s := range ws {
		busy += s.Nanos
	}
	ctx.AddWorkerTime(busy)
	ctx.AddWorkers(-workers)
	m.wstats = append(m.wstats, ws...)
	// The first error in candidate order wins, matching serial
	// evaluation (which stops there): every candidate before it was
	// claimed before it and matched by a worker that had not stopped.
	var first error
	at := len(cands)
	for w, err := range errs {
		if err != nil && failed[w] < at {
			first, at = err, failed[w]
		}
	}
	if first != nil {
		return out, first
	}
	for _, r := range runs {
		out = append(out, m.par[r.w].out[r.lo:r.hi]...)
	}
	return out, nil
}
