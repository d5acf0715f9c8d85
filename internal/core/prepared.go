package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mediator"
	"repro/internal/xmlql"
)

// maxPrepared bounds the prepared queries an engine keeps. Shapes fill
// it, not texts, so a workload needs one entry per query shape and set
// of pinned literals; past the bound an arbitrary shape makes room.
const maxPrepared = 512

// PreparedStats counts an engine's queries by whether their shape was
// prepared already (a hit: no parse, no unfolding) or had to be (a
// miss), with the entries held.
type PreparedStats struct {
	Hits, Misses int64
	Entries      int
}

// PreparedStats reports the prepared-query cache's traffic.
func (e *Engine) PreparedStats() PreparedStats {
	c := &e.prepared
	c.mu.RLock()
	defer c.mu.RUnlock()
	return PreparedStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.n}
}

// preparedCache holds prepared queries by shape key (xmlql.Shape).
type preparedCache struct {
	mu sync.RWMutex
	// entries holds, per shape, one prepared query per set of pinned
	// literals; a stored slice is never modified, so readers iterate it
	// after unlocking.
	entries map[string][]*prepared // guarded by mu
	n       int                    // guarded by mu; entries held
	hits    atomic.Int64
	misses  atomic.Int64
}

// prepared is the work a query's shape decides, done once: the parse,
// the unfolding over the mediated schemas, and the names the text reads.
// Planning is not in it: a plan's bind decisions read live statistics,
// so every call plans its bound rewrites afresh.
type prepared struct {
	*xmlql.Prepared
	key      string
	deps     []string // catalog.QueryDeps of the query
	rewrites []mediator.Rewrite
	// gen is the catalog generation the query was unfolded at, and skips
	// what the local store's skip predicate answered then. Either
	// changing makes the unfolding stale: a view defined or a source
	// registered since, a schema materialized, dropped or gone stale.
	// Staleness flips without any event (matview.Manager's TTL), so a
	// hit asks the predicate again rather than waiting to be told.
	gen   uint64
	skips []skipAnswer
	// progs holds each rewrite's CONSTRUCT program, compiled at the
	// rewrite's first answer (program).
	progs []atomic.Pointer[algebra.Program]
}

type skipAnswer struct {
	schema string
	holds  bool
}

// current reports whether p's unfolding is still what unfolding would
// give.
func (p *prepared) current(gen uint64, skip func(string) bool) bool {
	if p.gen != gen {
		return false
	}
	for _, a := range p.skips {
		if skip(a.schema) != a.holds {
			return false
		}
	}
	return true
}

// preparedCall is one query's use of the cache: the entry it runs, and
// on a hit (bound) its rewrites bound to the call's literals. On a miss
// the entry is fresh from the parser, and unfold completes and stores it.
type preparedCall struct {
	*prepared
	bound []mediator.Rewrite
	hit   bool
}

// program returns the CONSTRUCT program that writes tmpl, the template of
// rewrite ri's plan, at indent — at any indentation when indent < 0, as
// for a materialized answer, whose node sink ignores it: the entry's own,
// compiled once per indentation asked for, when tmpl is the entry's
// template (the usual case, which Rebind keeps), or one compiled for this
// call alone (a query not run from text, or a template holding a rebound
// literal).
func (c *preparedCall) program(ri int, tmpl *xmlql.TmplElem, indent int) *algebra.Program {
	if c == nil || ri >= len(c.progs) || tmpl != c.rewrites[ri].Query.Construct {
		return algebra.CompileProgram(tmpl, indent)
	}
	slot := &c.progs[ri]
	if prog := slot.Load(); prog.Serves(tmpl, indent) {
		return prog
	}
	prog := algebra.CompileProgram(tmpl, indent)
	slot.Store(prog)
	return prog
}

// shapes recycles the shape buffers QueryOpt scans query texts into.
var shapes = sync.Pool{New: func() any { return new(xmlql.Shape) }}

// prepare finds the scanned query's prepared entry and binds it, or
// parses the text for a new one.
func (e *Engine) prepare(sh *xmlql.Shape) (*preparedCall, error) {
	e.mu.RLock()
	skip := e.skipUnfold
	e.mu.RUnlock()
	gen := e.cat.Generation()
	if p := e.prepared.lookup(sh, gen, skip); p != nil {
		e.prepared.hits.Add(1)
		e.mPreparedHit.Inc()
		call := &preparedCall{prepared: p, bound: p.rewrites, hit: true}
		if from, to := p.Rebinding(sh.Lits); len(from) > 0 {
			call.bound = make([]mediator.Rewrite, len(p.rewrites))
			for i, rw := range p.rewrites {
				call.bound[i] = mediator.Rewrite{Query: xmlql.Rebind(rw.Query, from, to), Fallback: rw.Fallback}
			}
		}
		return call, nil
	}
	pq, err := sh.Prepare()
	if err != nil {
		return nil, err
	}
	e.prepared.misses.Add(1)
	e.mPreparedMiss.Inc()
	return &preparedCall{prepared: &prepared{Prepared: pq, key: string(sh.Key),
		deps: catalog.QueryDeps(pq.Query), gen: gen}}, nil
}

// unfold is mediator.UnfoldSkip for one run of q. For the prepared query
// itself (call) a hit takes the bound rewrites; a miss unfolds, noting
// what skip answers, and stores the entry.
func (e *Engine) unfold(call *preparedCall, q *xmlql.Query, skip func(string) bool) ([]mediator.Rewrite, error) {
	if call == nil {
		return mediator.UnfoldSkip(e.cat, q, skip)
	}
	if call.hit {
		return call.bound, nil
	}
	p := call.prepared
	if skip != nil {
		ask := skip
		skip = func(schema string) bool {
			holds := ask(schema)
			p.skips = append(p.skips, skipAnswer{schema, holds})
			return holds
		}
	}
	rewrites, err := mediator.UnfoldSkip(e.cat, q, skip)
	if err != nil {
		return nil, err
	}
	p.rewrites = rewrites
	p.progs = make([]atomic.Pointer[algebra.Program], len(rewrites))
	e.prepared.put(p)
	return rewrites, nil
}

// lookup returns the entry for sh's shape and pinned literals, if it is
// current.
func (c *preparedCache) lookup(sh *xmlql.Shape, gen uint64, skip func(string) bool) *prepared {
	c.mu.RLock()
	variants := c.entries[string(sh.Key)]
	c.mu.RUnlock()
	for _, p := range variants {
		if p.Serves(sh.Lits) {
			if p.current(gen, skip) {
				return p
			}
			return nil
		}
	}
	return nil
}

// put stores p, replacing the entry for the same pinned literals.
func (c *preparedCache) put(p *prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string][]*prepared{}
	}
	old := c.entries[p.key]
	variants := make([]*prepared, 0, len(old)+1)
	for _, o := range old {
		if !o.Serves(p.Lits) {
			variants = append(variants, o)
		}
	}
	variants = append(variants, p)
	c.n += len(variants) - len(old)
	for k, vs := range c.entries {
		if c.n <= maxPrepared {
			break
		}
		if k != p.key {
			delete(c.entries, k)
			c.n -= len(vs)
		}
	}
	if c.n > maxPrepared { // p's shape alone holds the rest
		c.n -= len(variants) - 1
		variants = variants[len(variants)-1:]
	}
	c.entries[p.key] = variants
}

// clear drops every entry.
func (c *preparedCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.n = nil, 0
}
