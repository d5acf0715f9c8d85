// Package cluster is the front end over a fleet of engine instances —
// the tier §2.1 sketches when it says "multiple instances of the
// integration engine can be run simultaneously on one or more servers"
// behind load balancing. It subsumes the old in-process
// server.Balancer with a real cluster layer:
//
//   - an instance registry: each member wraps a core.Engine and is
//     healthy until drained. There is no health prober: the instances
//     share one catalog and one breaker set, so a probe could only eject
//     all of them at once, and a down source is the per-source breakers'
//     and the partial-results policy's business, query by query;
//   - routing policies: round-robin, least-outstanding, power-of-two-
//     choices, and cache-affinity via rendezvous hashing on the
//     normalized query text, so repeated queries land on the instance
//     whose result cache is warm;
//   - admission control: a bounded global wait queue with deadline-aware
//     shedding (callers whose deadline would expire while queued are
//     refused immediately with a Retry-After hint) and per-instance
//     concurrency caps. Crucially the queue is global: a caller waits
//     for the first slot to free anywhere, never behind one saturated
//     instance while others idle (the head-of-line defect of the old
//     balancer, which picked an instance before acquiring its slot);
//   - graceful drain: stop routing to an instance, wait for its
//     in-flight queries, then remove it from the registry;
//   - result caches: the cluster owns every cached answer, in either
//     layout (Config.CacheEntries, Config.CachePerInstance), and
//     Invalidate is the one rule for which of them a change reaches.
//
// Everything is observable: nimble_cluster_* metrics, and a Status
// snapshot served on /debug/cluster.
package cluster

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/sched"
)

// Clock abstracts time for queue-wait estimation;
// chaos.FakeClock satisfies it (it is exec.Clock, shared with the fetch
// resilience layer so one fake clock drives both).
type Clock = exec.Clock

// Seeds of the admission estimator.
const (
	// noCapacityWait is the wait estimated while every instance is
	// drained: nothing frees a slot until an instance is restored.
	noCapacityWait = 10 * time.Second
	// defaultServiceEstimate seeds the queue-wait estimator before any
	// query has completed.
	defaultServiceEstimate = 10 * time.Millisecond
)

// Config tunes a Cluster.
type Config struct {
	// Policy is the routing policy (default RoundRobin).
	Policy Policy
	// Capacity caps concurrent queries per instance (0 = unbounded).
	Capacity int
	// QueueLimit bounds the global admission queue once every instance
	// is saturated; excess callers are shed with an OverloadError
	// (0 = unbounded queue).
	QueueLimit int
	// Clock drives wait estimation; nil = real time.
	Clock Clock
	// Metrics receives the nimble_cluster_* series; nil disables
	// metrics.
	Metrics *obs.Registry
	// Seed seeds the power-of-two-choices sampler (0 = 1), so runs are
	// reproducible.
	Seed int64
	// Logger receives structured admission/drain events with
	// trace correlation (nil discards them).
	Logger *slog.Logger
	// CacheEntries sizes the result caches (0 disables caching); their
	// answers expire after CacheTTL (0 = never). The cluster holds one
	// shared cache, checked before admission so a hit takes no slot, or
	// with CachePerInstance one per instance, checked after routing
	// (affinity's target). All count into the nimble_qcache_* series.
	CacheEntries     int
	CacheTTL         time.Duration
	CachePerInstance bool
}

// OverloadError is returned when admission control sheds a query: the
// queue is full, or the caller's deadline would expire before a slot
// could free. The HTTP front end maps it to 503 with a Retry-After
// header.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cluster overloaded (%s): retry after %s", e.Reason, e.RetryAfter)
}

// RetryAfterSeconds renders the hint for a Retry-After header, rounded
// up and never below one second.
func (e *OverloadError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// member is one registered engine instance.
type member struct {
	id     int
	name   string
	engine *core.Engine

	cache *qcache.Cache // the per-instance layout's cache; affinity's target

	active   int  // guarded by Cluster.mu; granted slots (queued callers count from grant)
	draining bool // guarded by Cluster.mu
	removed  bool // guarded by Cluster.mu

	drainDone chan struct{} // guarded by Cluster.mu; closed when active hits 0 while draining

	mRequests *obs.Counter
}

// waiter is one caller parked in the global admission queue.
type waiter struct {
	key     string
	ch      chan *member // buffered; receives the granted member
	enq     time.Time
	granted bool // guarded by Cluster.mu
}

// Cluster routes queries across registered engine instances.
type Cluster struct {
	cfg   Config
	clock Clock
	log   *slog.Logger // immutable after New; never nil

	mu      sync.Mutex
	members []*member  // guarded by mu (slice immutable; element state guarded)
	waiters *list.List // guarded by mu; FIFO of *waiter
	queued  int        // guarded by mu
	rr      int        // guarded by mu; round-robin cursor
	tie     int        // guarded by mu; rotating tie-break offset
	rng     *splitmix  // guarded by mu; p2c sampler
	ewmaNs  float64    // guarded by mu; service-time EWMA

	shedQueueFull int64 // guarded by mu
	shedDeadline  int64 // guarded by mu

	mShedQueueFull *obs.Counter
	mShedDeadline  *obs.Counter
	mQueueWait     *obs.Histogram

	// sched is the first engine's worker scheduler, surfaced on
	// /debug/cluster. The two admission layers compose without
	// double-counting: cluster capacity slots bound how many *queries* run
	// per instance, scheduler slots bound how many extra *workers* all
	// running operators may spread across, process-wide. A query holds one
	// cluster slot for its whole run; inside it, only a join or sort past
	// its gate holds a worker grant, for as long as it runs.
	sched *sched.Scheduler

	shared *qcache.Cache   // the shared layout's cache
	caches []*qcache.Cache // every result cache, in either layout
}

// New builds a cluster over the given engine instances. Instance names
// come from core.Engine.ID when set, else the index.
func New(cfg Config, engines ...*core.Engine) *Cluster {
	if len(engines) == 0 {
		panic("cluster: at least one engine instance required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = exec.RealClock
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	c := &Cluster{
		cfg:     cfg,
		clock:   clock,
		log:     log,
		waiters: list.New(),
		rng:     newSplitmix(uint64(seed)),
	}
	for i, e := range engines {
		name := e.ID()
		if name == "" {
			name = strconv.Itoa(i)
		}
		c.members = append(c.members, &member{id: i, name: name, engine: e})
	}
	c.sched = engines[0].Scheduler()
	if cfg.CacheEntries > 0 {
		newCache := func() *qcache.Cache {
			q := qcache.New(cfg.CacheEntries, cfg.CacheTTL)
			q.SetMetrics(cfg.Metrics)
			c.caches = append(c.caches, q)
			return q
		}
		if cfg.CachePerInstance {
			for _, m := range c.members {
				m.cache = newCache()
			}
		} else {
			c.shared = newCache()
		}
		cfg.Metrics.GaugeFunc("nimble_qcache_entries", func() float64 { return float64(c.CacheStats().Entries) })
	}
	if reg := cfg.Metrics; reg != nil {
		c.mShedQueueFull = reg.Counter("nimble_cluster_shed_total", "reason", "queue_full")
		c.mShedDeadline = reg.Counter("nimble_cluster_shed_total", "reason", "deadline")
		c.mQueueWait = reg.Histogram("nimble_cluster_queue_wait_seconds")
		reg.GaugeFunc("nimble_cluster_queue_depth", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.queued)
		})
		for _, m := range c.members {
			m := m
			m.mRequests = reg.Counter("nimble_cluster_requests_total", "instance", m.name)
			reg.GaugeFunc("nimble_cluster_inflight", func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(m.active)
			}, "instance", m.name)
			reg.GaugeFunc("nimble_cluster_healthy", func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if m.draining || m.removed {
					return 0
				}
				return 1
			}, "instance", m.name)
		}
	}
	return c
}

// Invalidate is the one rule for what a change to what name answers (a
// view materialized, refreshed or dropped, a definition added) reaches:
// the cached answers tagged with name or with any schema defined over it
// (catalog.Dependents), in every cache the cluster holds.
func (c *Cluster) Invalidate(name string) {
	names := map[string]bool{}
	for i, n := 0, c.Instances(); i < n; i++ {
		for _, dep := range c.Engine(i).Catalog().Dependents(name) {
			names[dep] = true
		}
	}
	for _, q := range c.caches {
		for dep := range names {
			q.InvalidateSource(dep)
		}
	}
}

// Instances reports the number of registered instances (drained
// instances included; see Status for their state).
func (c *Cluster) Instances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// Engine exposes instance i's engine (experiments and the management
// endpoints need per-instance control).
func (c *Cluster) Engine(i int) *core.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[i].engine
}

// InFlight reports instance i's outstanding queries: granted slots,
// counting admitted callers from the moment they are assigned, not just
// those already executing.
func (c *Cluster) InFlight(i int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.members[i].active)
}

// Queued reports the callers currently parked in the admission queue.
func (c *Cluster) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// Loads reports per-instance completed query counts.
func (c *Cluster) Loads() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.members))
	for i, m := range c.members {
		out[i] = m.engine.QueriesRun()
	}
	return out
}

// CacheStats aggregates every result cache the cluster holds, in either
// layout (zero value when caching is off).
func (c *Cluster) CacheStats() qcache.Stats {
	var agg qcache.Stats
	for _, q := range c.caches {
		st := q.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Entries += st.Entries
	}
	return agg
}

// Query routes one query to an instance per the policy, through the
// result cache and admission control.
func (c *Cluster) Query(ctx context.Context, q string) (*core.Result, error) {
	return c.QueryOpt(ctx, q, core.QueryOptions{})
}

// QueryOpt is Query with per-query options. A cached answer's values are
// shared with every later hit: render them through View, or edit a
// Document copy. An answer the cache answers or stores is materialized,
// so qo.Buffer is dropped and Values set, hit or miss; a profiled or
// explained one goes into qo.Buffer as a plain answer does.
func (c *Cluster) QueryOpt(ctx context.Context, q string, qo core.QueryOptions) (*core.Result, error) {
	key := qcache.Key(q)
	// The cluster hop hangs under the caller's span (nil-safe: without a
	// front-end trace the whole chain degrades to no-ops) and records
	// the routing decision and cache outcome.
	ctx, sp := obs.StartSpan(ctx, "cluster")
	defer sp.Finish()
	useCache := !qo.Profile && !qo.Explain // their reports need a real execution
	if useCache && c.shared != nil {
		if res, ok := cacheGet(c.shared, key, sp); ok {
			return res, nil
		}
	}
	m, err := c.acquire(ctx, key)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttr("route_policy", c.cfg.Policy.String())
	sp.SetAttr("instance", m.name)
	start := c.clock.Now()
	defer func() { c.release(m, c.clock.Now().Sub(start)) }()
	m.mRequests.Inc()
	cache := c.shared // checked above, before admission
	if m.cache != nil {
		cache = m.cache // the per-instance layout: checked after routing
		if useCache {
			if res, ok := cacheGet(cache, key, sp); ok {
				return res, nil
			}
		}
	}
	// An Invalidate while the engine runs may have dropped what its
	// answer read: the answer is stored only if none did.
	var gen uint64
	store := useCache && cache != nil
	if store {
		gen = cache.Generation()
		qo.Buffer = nil // the cache stores Values
	}
	res, err := m.engine.QueryOpt(ctx, q, qo)
	if err == nil && store && res.Completeness.Complete {
		cache.PutAt(key, qcache.Result{Values: res.Values, Sources: cacheTags(res)}, gen)
	}
	return res, err
}

// cacheGet answers from cache, recording the outcome on the span.
func cacheGet(cache *qcache.Cache, key string, sp obs.SpanRef) (*core.Result, bool) {
	hit, ok := cache.Get(key)
	sp.SetBool("cache_hit", ok)
	if !ok {
		return nil, false
	}
	res := &core.Result{Values: hit.Values, Rows: len(hit.Values)}
	res.Completeness.Complete = true
	return res, true
}

// cacheTags lists every name a cached result depends on: the sources
// that actually answered (post-unfolding) plus the names the query text
// reads, so invalidating either evicts the entry.
func cacheTags(res *core.Result) []string {
	srcs := make([]string, 0, len(res.Completeness.Statuses)+len(res.Deps))
	for _, st := range res.Completeness.Statuses {
		srcs = append(srcs, st.Source)
	}
	return append(srcs, res.Deps...)
}

// acquire admits the caller and grants an instance slot: an immediate
// grant when some eligible instance has capacity, otherwise a wait in
// the global FIFO queue — unless admission control sheds the request.
func (c *Cluster) acquire(ctx context.Context, key string) (*member, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The admission span brackets the whole wait, so queue time shows up
	// as a distinct segment of the trace rather than vanishing into the
	// cluster span.
	spAdm := obs.FromContext(ctx).StartChild("admission")
	defer spAdm.Finish()
	m, w, elem, err := c.admit(ctx, key)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			spAdm.SetAttr("shed", oe.Reason)
			c.log.WarnContext(ctx, "admission shed",
				"reason", oe.Reason, "retry_after", oe.RetryAfter.String())
		}
		spAdm.SetAttr("error", err.Error())
		return nil, err
	}
	if m != nil {
		spAdm.SetAttr("outcome", "immediate")
		return m, nil
	}
	spAdm.AddEvent("enqueued")
	spAdm.SetAttr("outcome", "queued")

	select {
	case m := <-w.ch:
		wait := c.clock.Now().Sub(w.enq)
		c.mQueueWait.Observe(wait.Seconds())
		spAdm.AddEvent("granted", "instance", m.name)
		spAdm.SetInt("wait_us", wait.Microseconds())
		return m, nil
	case <-ctx.Done():
		c.mu.Lock()
		if !w.granted {
			c.waiters.Remove(elem)
			c.queued--
			c.mu.Unlock()
			spAdm.SetAttr("error", ctx.Err().Error())
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// The grant raced the cancellation: hand the slot back.
		c.release(<-w.ch, -1)
		spAdm.SetAttr("error", ctx.Err().Error())
		return nil, ctx.Err()
	}
}

// admit is acquire's locked half: it returns a granted member, or the
// waiter it parked in the global queue, or the shed error admission
// control decided on.
func (c *Cluster) admit(ctx context.Context, key string) (*member, *waiter, *list.Element, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.pickLocked(key); m != nil {
		m.active++
		return m, nil, nil, nil
	}
	// Saturated (or every instance drained): admission control.
	est := c.estimateWaitLocked()
	if c.cfg.QueueLimit > 0 && c.queued >= c.cfg.QueueLimit {
		c.shedQueueFull++
		c.mShedQueueFull.Inc()
		return nil, nil, nil, &OverloadError{Reason: "queue full", RetryAfter: est}
	}
	now := c.clock.Now()
	if dl, ok := ctx.Deadline(); ok && now.Add(est).After(dl) {
		c.shedDeadline++
		c.mShedDeadline.Inc()
		return nil, nil, nil, &OverloadError{Reason: "deadline shorter than queue wait", RetryAfter: est}
	}
	w := &waiter{key: key, ch: make(chan *member, 1), enq: now}
	elem := c.waiters.PushBack(w)
	c.queued++
	return nil, w, elem, nil
}

// release returns a slot and re-dispatches the queue. dur < 0 skips the
// service-time EWMA (cancelled grants carry no signal).
func (c *Cluster) release(m *member, dur time.Duration) {
	c.mu.Lock()
	m.active--
	if dur >= 0 {
		ns := float64(dur.Nanoseconds())
		if c.ewmaNs == 0 {
			c.ewmaNs = ns
		} else {
			c.ewmaNs = 0.8*c.ewmaNs + 0.2*ns
		}
	}
	if m.draining && m.active == 0 && m.drainDone != nil {
		close(m.drainDone)
		m.drainDone = nil
	}
	c.dispatchLocked()
	c.mu.Unlock()
}

// dispatchLocked grants freed capacity to queued callers in FIFO order.
func (c *Cluster) dispatchLocked() {
	for c.waiters.Len() > 0 {
		front := c.waiters.Front()
		w := front.Value.(*waiter)
		m := c.pickLocked(w.key)
		if m == nil {
			return
		}
		m.active++
		w.granted = true
		c.waiters.Remove(front)
		c.queued--
		w.ch <- m
	}
}

// estimateWaitLocked predicts how long a newly queued caller would wait:
// queue position times the service-time EWMA, divided by the routable
// capacity draining the queue.
func (c *Cluster) estimateWaitLocked() time.Duration {
	slots := 0
	for _, m := range c.members {
		if m.removed || m.draining {
			continue
		}
		if c.cfg.Capacity <= 0 {
			// An unbounded routable instance never queues callers.
			return 0
		}
		slots += c.cfg.Capacity
	}
	if slots == 0 {
		return noCapacityWait
	}
	svc := time.Duration(c.ewmaNs)
	if svc <= 0 {
		svc = defaultServiceEstimate
	}
	turns := (c.queued + slots) / slots // ceil((queued+1)/slots)
	return time.Duration(turns) * svc
}

// Drain gracefully removes instance i: stop routing to it, wait for its
// in-flight queries to finish (or ctx to expire — the instance stays
// draining and unrouted either way), then drop it from the registry.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	c.mu.Lock()
	m := c.members[i]
	if m.removed {
		c.mu.Unlock()
		return nil
	}
	m.draining = true
	active := m.active
	if m.active == 0 {
		m.removed = true
		c.mu.Unlock()
		obs.FromContext(ctx).AddEvent("drain", "instance", m.name, "waited_for", "0")
		c.log.InfoContext(ctx, "instance drained", "instance", m.name, "waited_for", 0)
		return nil
	}
	if m.drainDone == nil {
		m.drainDone = make(chan struct{})
	}
	done := m.drainDone
	c.mu.Unlock()
	obs.FromContext(ctx).AddEvent("drain wait", "instance", m.name, "active", strconv.Itoa(active))
	c.log.InfoContext(ctx, "draining instance", "instance", m.name, "active", active)

	select {
	case <-done:
	case <-ctx.Done():
		c.log.WarnContext(ctx, "drain interrupted", "instance", m.name, "error", ctx.Err().Error())
		return ctx.Err()
	}
	c.mu.Lock()
	m.removed = true
	c.mu.Unlock()
	obs.FromContext(ctx).AddEvent("drain", "instance", m.name, "waited_for", strconv.Itoa(active))
	c.log.InfoContext(ctx, "instance drained", "instance", m.name, "waited_for", active)
	return nil
}

// DrainAll drains every instance (shutdown path).
func (c *Cluster) DrainAll(ctx context.Context) error {
	for i, n := 0, c.Instances(); i < n; i++ {
		if err := c.Drain(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// Restore re-registers a drained instance as healthy — the
// rolling-restart counterpart of Drain — and dispatches queued callers
// to it.
func (c *Cluster) Restore(i int) {
	c.mu.Lock()
	m := c.members[i]
	m.draining = false
	m.removed = false
	c.dispatchLocked()
	c.mu.Unlock()
	c.log.Info("instance restored", "instance", m.name)
}

// InstanceStatus is one instance's row in the /debug/cluster inspector.
type InstanceStatus struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	State      string  `json:"state"` // healthy | draining | removed
	Active     int     `json:"active"`
	Capacity   int     `json:"capacity"`
	QueriesRun int64   `json:"queries_run"`
	CacheHits  int64   `json:"cache_hits,omitempty"`
	CacheRate  float64 `json:"cache_hit_rate,omitempty"`
}

// Status is the cluster snapshot served on /debug/cluster.
type Status struct {
	Policy        string           `json:"policy"`
	Capacity      int              `json:"capacity"`
	QueueLimit    int              `json:"queue_limit"`
	Queued        int              `json:"queued"`
	ShedQueueFull int64            `json:"shed_queue_full"`
	ShedDeadline  int64            `json:"shed_deadline"`
	AvgServiceMS  float64          `json:"avg_service_ms"`
	Instances     []InstanceStatus `json:"instances"`
	// Sched is the accounting of the worker scheduler the instances'
	// operators acquire from.
	Sched *sched.Snapshot `json:"sched,omitempty"`
}

// Status snapshots the registry for the inspector.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	st := Status{
		Policy:        c.cfg.Policy.String(),
		Capacity:      c.cfg.Capacity,
		QueueLimit:    c.cfg.QueueLimit,
		Queued:        c.queued,
		ShedQueueFull: c.shedQueueFull,
		ShedDeadline:  c.shedDeadline,
		AvgServiceMS:  c.ewmaNs / 1e6,
	}
	for _, m := range c.members {
		st.Instances = append(st.Instances, InstanceStatus{
			ID:         m.id,
			Name:       m.name,
			State:      m.stateLocked(),
			Active:     m.active,
			Capacity:   c.cfg.Capacity,
			QueriesRun: m.engine.QueriesRun(),
		})
	}
	members := c.members
	c.mu.Unlock()
	snap := c.sched.Snap()
	st.Sched = &snap
	// Cache snapshots take their own locks; collect outside.
	for i, m := range members {
		if m.cache != nil {
			cs := m.cache.Stats()
			st.Instances[i].CacheHits = cs.Hits
			st.Instances[i].CacheRate = cs.HitRate()
		}
	}
	return st
}

// stateLocked names the member's routing state.
func (m *member) stateLocked() string {
	switch {
	case m.removed:
		return "removed"
	case m.draining:
		return "draining"
	default:
		return "healthy"
	}
}
