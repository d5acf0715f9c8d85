// Package sched is the shared worker budget: one process-wide pool of
// worker slots that the parallel operators of every concurrent query
// acquire from. A query's joins and its final sort run serially until
// their input reaches a measured crossover (internal/algebra); only past
// it does an operator ask for workers, and it holds what it was granted
// for exactly as long as it spends it.
//
//   - the budget counts *extra* worker slots — goroutines beyond the one
//     driving the query. A granted degree of d costs d−1 slots, so the
//     serial floor costs nothing. The default budget is GOMAXPROCS;
//   - Acquire never blocks: an operator asking for degree d receives
//     min(d, 1+free) at once, and one granted less than it asked for is
//     counted as a downgrade;
//   - two priority classes, interactive and batch. A batch acquire never
//     takes the pool's last free slot, so an interactive operator that
//     arrives while only batch operators run is granted at least degree
//     2, and none waits behind batch for longer than one batch operator
//     runs — which is how long a grant lives;
//   - Release is idempotent, so an operator may release on every path.
//
// The accounting invariant, asserted by the storm and fuzz suites at
// every instant: granted + free == budget and granted ≤ budget. The
// gauges nimble_sched_budget / _granted and the counter
// nimble_sched_downgrades_total expose it; granted is zero at idle.
// Cluster slots bound how many *queries* run per instance; these slots
// bound how many *workers* running operators spread across, process-wide.
package sched

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Class is a query's scheduling priority class.
type Class int

const (
	// Interactive queries are latency-sensitive: their operators may take
	// every free slot.
	Interactive Class = iota
	// Batch queries are throughput work: their operators leave the last
	// free slot for an interactive one.
	Batch
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// ParseClass parses a class name as it appears in Config.QueryClass, the
// X-Nimble-Class HTTP header, and the nimbled -query-class flag. Empty
// means Interactive (the default).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return Interactive, fmt.Errorf("sched: unknown query class %q (want interactive or batch)", s)
}

// Config tunes a Scheduler.
type Config struct {
	// Budget is the global pool of extra worker slots shared by all
	// concurrent operators (a granted degree of d consumes d−1 slots).
	// 0 resolves to runtime.GOMAXPROCS(0).
	Budget int
	// Metrics receives the nimble_sched_* series; nil disables metrics.
	Metrics *obs.Registry
}

// Scheduler owns the worker budget. Safe for concurrent use.
type Scheduler struct {
	budget int // immutable after New

	mu         sync.Mutex
	free       int                 // guarded by mu; slots not granted
	grants     map[*Grant]struct{} // guarded by mu; live grants
	downgrades int64               // guarded by mu; grants below their request

	mDowngrades *obs.Counter
}

// New builds a scheduler over the configured budget.
func New(cfg Config) *Scheduler {
	budget := cfg.Budget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	budget = max(budget, 1)
	s := &Scheduler{budget: budget, free: budget, grants: map[*Grant]struct{}{}}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("nimble_sched_budget", func() float64 { return float64(s.Budget()) })
		reg.GaugeFunc("nimble_sched_granted", func() float64 { return float64(s.Snap().Granted) })
		s.mDowngrades = reg.Counter("nimble_sched_downgrades_total")
	}
	return s
}

// defaultSched is built on first use; later calls take no lock.
var defaultSched = sync.OnceValue(func() *Scheduler { return New(Config{Metrics: obs.Default()}) })

// Default returns the process-wide scheduler (budget GOMAXPROCS,
// metrics on obs.Default()). Engines configured without a Scheduler
// acquire here, so even ad-hoc core.Engine users share one budget.
func Default() *Scheduler { return defaultSched() }

// Budget reports the configured slot budget.
func (s *Scheduler) Budget() int { return s.budget }

// Grant is one operator's admitted degree of parallelism, held while the
// operator runs and released when it stops — on success, error,
// cancellation and panic paths alike (Release is idempotent).
type Grant struct {
	s        *Scheduler
	degree   int  // guarded by s.mu
	released bool // guarded by s.mu
}

// Acquire admits an operator asking for the desired degree under the
// given class. desired <= 0 resolves to the budget. The granted degree is
// min(desired, 1+free) with a floor of 1, and a batch acquire leaves the
// last free slot alone; Acquire never blocks and never fails.
func (s *Scheduler) Acquire(desired int, class Class) *Grant {
	if desired <= 0 {
		desired = s.budget
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	room := s.free
	if class == Batch {
		room--
	}
	take := max(min(desired-1, room), 0)
	s.free -= take
	g := &Grant{s: s, degree: 1 + take}
	s.grants[g] = struct{}{}
	if g.degree < desired {
		s.downgrades++
		s.mDowngrades.Inc()
	}
	return g
}

// Degree reports the granted degree of parallelism. A nil or released
// grant is serial (degree 1).
func (g *Grant) Degree() int {
	if g == nil {
		return 1
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.degree
}

// Checkpoint reports the granted degree.
//
// Deprecated: a grant's degree no longer changes while it is held; use
// Degree.
func (g *Grant) Checkpoint() int { return g.Degree() }

// Release returns the grant's slots to the pool. Idempotent: the second
// and later calls are no-ops, so error, cancel and panic paths cannot
// double-release or leak.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.released {
		return
	}
	g.released = true
	g.s.free += g.degree - 1
	g.degree = 1
	delete(g.s.grants, g)
}

// Snapshot is the scheduler's instantaneous accounting, served on
// /debug/cluster and asserted by the storm/fuzz invariants:
// Granted + Free == Budget and Granted <= Budget, always; Granted and
// Queries are zero at idle.
type Snapshot struct {
	// Budget is the configured extra-worker slot pool.
	Budget int `json:"budget"`
	// Granted is the sum of degree−1 over live grants (slots out).
	Granted int `json:"granted"`
	// Free is the slots available for new grants.
	Free int `json:"free"`
	// Queries is the live grant count: operators holding workers.
	Queries int `json:"queries"`
	// Downgrades counts grants admitted below their desired degree.
	Downgrades int64 `json:"downgrades"`
}

// Snap returns the current accounting. Granted is recomputed from the
// live grants (not derived from Free), so the Granted+Free==Budget
// invariant check in tests catches bookkeeping drift on either side.
func (s *Scheduler) Snap() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	granted := 0
	for g := range s.grants {
		granted += g.degree - 1
	}
	return Snapshot{
		Budget:     s.budget,
		Granted:    granted,
		Free:       s.free,
		Queries:    len(s.grants),
		Downgrades: s.downgrades,
	}
}
