package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

const testQuery = `WHERE <t>$x</t> IN "db" CONSTRUCT <r>$x</r>`

// newEngine builds one engine over its own catalog with an XML source
// "db"; a non-nil schedule wraps the source in chaos faults. Separate
// catalogs per instance let a test fault one instance's source alone;
// that instance's answers come back flagged partial.
func newEngine(t testing.TB, sched chaos.Schedule) *core.Engine {
	t.Helper()
	cat := catalog.New()
	src, err := sources.NewXMLSource("db", `<db><t>one</t><t>two</t></db>`)
	if err != nil {
		t.Fatal(err)
	}
	var s catalog.Source = src
	if sched != nil {
		s = chaos.Wrap(src, sched)
	}
	if err := cat.AddSource(s); err != nil {
		t.Fatal(err)
	}
	return core.New(cat, core.Config{})
}

// newEngines builds n healthy engines.
func newEngines(t testing.TB, n int) []*core.Engine {
	t.Helper()
	es := make([]*core.Engine, n)
	for i := range es {
		es[i] = newEngine(t, nil)
	}
	return es
}

// gatedSource blocks every fetch until the gate closes — the handle the
// concurrency tests use to hold a slot open deterministically.
type gatedSource struct {
	name    string
	gate    chan struct{}
	started chan struct{} // if set, receives once per fetch before it blocks
}

func (g *gatedSource) Name() string                       { return g.name }
func (g *gatedSource) Capabilities() catalog.Capabilities { return catalog.Capabilities{} }
func (g *gatedSource) Fetch(ctx context.Context, _ catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	if g.started != nil {
		g.started <- struct{}{}
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, catalog.Cost{}, ctx.Err()
	}
	b := xmldm.NewBuilder()
	return b.Elem("db", b.Elem("t", "held")), catalog.Cost{RowsReturned: 1}, nil
}

// gatedEngine builds an engine whose source blocks until the returned
// gate is closed.
func gatedEngine(t testing.TB) (*core.Engine, chan struct{}) {
	t.Helper()
	cat := catalog.New()
	gate := make(chan struct{})
	if err := cat.AddSource(&gatedSource{name: "db", gate: gate}); err != nil {
		t.Fatal(err)
	}
	return core.New(cat, core.Config{}), gate
}

// waitInFlight spins until instance i holds want slots.
func waitInFlight(t testing.TB, c *Cluster, i int, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.InFlight(i) != want {
		if time.Now().After(deadline) {
			t.Fatalf("instance %d never reached %d in flight (have %d)", i, want, c.InFlight(i))
		}
		time.Sleep(time.Millisecond)
	}
}

// requireIdle fails the test unless every admission slot is back and
// the wait queue is empty — counted and listed alike, so a cancelled
// waiter left in the list shows up before a later dispatch grants it a
// slot nobody will return. Call it once the test's callers have
// returned.
func requireIdle(t testing.TB, c *Cluster) {
	t.Helper()
	for i := 0; i < c.Instances(); i++ {
		if n := c.InFlight(i); n != 0 {
			t.Errorf("instance %d holds %d slots at idle", i, n)
		}
	}
	c.mu.Lock()
	listed := c.waiters.Len()
	c.mu.Unlock()
	if n := c.Queued(); n != 0 || listed != 0 {
		t.Errorf("admission queue not empty at idle: %d counted, %d listed", n, listed)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	c := New(Config{Policy: RoundRobin}, newEngines(t, 3)...)
	for i := 0; i < 9; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range c.Loads() {
		if n != 3 {
			t.Errorf("instance %d ran %d queries, want 3 (loads %v)", i, n, c.Loads())
		}
	}
}

// TestLeastOutstandingTieRotation is the regression test for the old
// balancer's tie-breaking: with every instance idle, ties always broke
// toward instance 0, so sequential (non-overlapping) traffic piled onto
// one instance. Ties must rotate.
func TestLeastOutstandingTieRotation(t *testing.T) {
	c := New(Config{Policy: LeastOutstanding}, newEngines(t, 3)...)
	for i := 0; i < 9; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range c.Loads() {
		if n != 3 {
			t.Errorf("sequential ties did not rotate: instance %d ran %d, want 3 (loads %v)", i, n, c.Loads())
		}
	}
}

// TestNoHeadOfLineBlocking is the regression test for the old
// balancer's admission order: it picked an instance first and acquired
// the capacity slot after, so a caller could queue behind a saturated
// instance while another instance sat idle. In the cluster, eligibility
// includes a free slot: with instance 0 wedged at its cap, a new query
// must run immediately on instance 1.
func TestNoHeadOfLineBlocking(t *testing.T) {
	e0, gate := gatedEngine(t)
	e1 := newEngine(t, nil)
	// Round-robin would pick instance 0 next if capacity were ignored.
	c := New(Config{Policy: RoundRobin, Capacity: 1}, e0, e1)

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	// Instance 0 is saturated; this query must not wait behind it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, testQuery); err != nil {
		t.Fatalf("query blocked behind saturated instance: %v", err)
	}
	if n := c.Loads()[1]; n != 1 {
		t.Errorf("instance 1 ran %d queries, want 1", n)
	}

	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("held query: %v", err)
	}
}

// TestGlobalQueueDrainsToFirstFreeSlot: a caller queued while the whole
// fleet is saturated takes the first slot that frees anywhere, not a
// slot on some pre-picked instance.
func TestGlobalQueueDrainsToFirstFreeSlot(t *testing.T) {
	e0, gate0 := gatedEngine(t)
	e1, gate1 := gatedEngine(t)
	c := New(Config{Policy: RoundRobin, Capacity: 1}, e0, e1)

	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Query(context.Background(), testQuery)
			errs <- err
		}()
	}
	waitInFlight(t, c, 0, 1)
	waitInFlight(t, c, 1, 1)

	// Third caller queues globally.
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		errs <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("caller never queued (queued=%d)", c.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Free instance 1 only: the queued caller must land there.
	close(gate1)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil { // queued caller, now on instance 1
		t.Fatal(err)
	}
	if got := c.Loads()[1]; got != 2 {
		t.Errorf("instance 1 ran %d queries, want 2 (queued caller must take the freed slot)", got)
	}
	close(gate0)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestPowerOfTwoSpreadsUnderLoad(t *testing.T) {
	c := New(Config{Policy: PowerOfTwo, Seed: 42}, newEngines(t, 4)...)
	for i := 0; i < 64; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range c.Loads() {
		if n == 0 {
			t.Errorf("instance %d never chosen (loads %v)", i, c.Loads())
		}
	}
}

func TestCacheAffinityRoutesRepeatsToOwner(t *testing.T) {
	c := New(Config{Policy: CacheAffinity}, newEngines(t, 4)...)
	queries := []string{
		`WHERE <t>$x</t> IN "db" CONSTRUCT <a>$x</a>`,
		`WHERE <t>$x</t> IN "db" CONSTRUCT <b>$x</b>`,
		`WHERE <t>$x</t> IN "db" CONSTRUCT <c>$x</c>`,
	}
	for round := 0; round < 5; round++ {
		for _, q := range queries {
			if _, err := c.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every repeat of a query must have landed on its rendezvous owner.
	counts := map[int]int64{}
	for _, q := range queries {
		counts[c.AffinityOwner(qcache.Key(q))] += 5
	}
	for i, n := range c.Loads() {
		if n != counts[i] {
			t.Errorf("instance %d ran %d queries, want %d (affinity must pin repeats)", i, n, counts[i])
		}
	}
}

func TestAffinityKeyNormalization(t *testing.T) {
	c := New(Config{Policy: CacheAffinity}, newEngines(t, 4)...)
	a := qcache.Key(`WHERE <t>$x</t> IN "db"  CONSTRUCT <r>$x</r>`)
	b := qcache.Key("WHERE <t>$x</t>\n\tIN \"db\" CONSTRUCT <r>$x</r>")
	if a != b {
		t.Fatalf("keys differ: %q vs %q", a, b)
	}
	if c.AffinityOwner(a) != c.AffinityOwner(b) {
		t.Error("whitespace variants hash to different owners")
	}
}

// TestAffinitySpillsWhenOwnerSaturated: when the owner has no free
// slot, the query runs on the next-best instance rather than queueing —
// affinity is a preference, not a hard pin.
func TestAffinitySpillsWhenOwnerSaturated(t *testing.T) {
	// Two instances; wedge whichever owns the test query.
	e0, gate0 := gatedEngine(t)
	e1, gate1 := gatedEngine(t)
	c := New(Config{Policy: CacheAffinity, Capacity: 1}, e0, e1)
	owner := c.AffinityOwner(qcache.Key(testQuery))
	gates := []chan struct{}{gate0, gate1}

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, owner, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	close(gates[1-owner])
	if _, err := c.Query(ctx, testQuery); err != nil {
		t.Fatalf("query did not spill off saturated owner: %v", err)
	}
	if got := c.Loads()[1-owner]; got != 1 {
		t.Errorf("spill instance ran %d queries, want 1", got)
	}
	close(gates[owner])
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestPerInstanceCacheHits: with per-instance caches and affinity
// routing, a repeated query answers from the owner's warm cache without
// touching the engine again.
func TestPerInstanceCacheHits(t *testing.T) {
	c := New(Config{Policy: CacheAffinity, CacheEntries: 16, CachePerInstance: true}, newEngines(t, 2)...)
	for i := 0; i < 4; i++ {
		res, err := c.Query(context.Background(), testQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) == 0 || !res.Completeness.Complete {
			t.Fatalf("round %d: bad result %+v", i, res)
		}
	}
	st := c.CacheStats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 3 hits / 1 miss", st)
	}
	var total int64
	for _, n := range c.Loads() {
		total += n
	}
	if total != 1 {
		t.Errorf("engines ran %d queries, want 1 (repeats must hit the cache)", total)
	}
	requireIdle(t, c)
}

// TestCacheHitReleasesItsSlot: a query answered from the instance's
// cache returns its admission slot like one the engine ran. With
// capacity 1, a slot leaked by the hit leaves the third caller nothing
// to be admitted to, so under its 50 ms deadline it is shed or times
// out instead of running. Every caller has a deadline, so a leak fails
// the test instead of hanging it.
func TestCacheHitReleasesItsSlot(t *testing.T) {
	c := New(Config{Capacity: 1, CacheEntries: 4, CachePerInstance: true}, newEngine(t, nil))
	query := func(step string, d time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		if _, err := c.Query(ctx, testQuery); err != nil {
			t.Fatalf("%s not admitted: %v", step, err)
		}
	}
	query("miss", time.Second)
	query("hit", time.Second)
	if st := c.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
	query("query after the hit", 50*time.Millisecond)
	requireIdle(t, c)
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"":             LeastOutstanding,
		"least":        LeastOutstanding,
		"least-loaded": LeastOutstanding,
		"rr":           RoundRobin,
		"round-robin":  RoundRobin,
		"p2c":          PowerOfTwo,
		"affinity":     CacheAffinity,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) did not fail")
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := New(Config{Policy: CacheAffinity, Capacity: 4, QueueLimit: 8, CacheEntries: 4, CachePerInstance: true}, newEngines(t, 2)...)
	if _, err := c.Query(context.Background(), testQuery); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Policy != "cache-affinity" || st.Capacity != 4 || st.QueueLimit != 8 {
		t.Errorf("status header wrong: %+v", st)
	}
	if len(st.Instances) != 2 {
		t.Fatalf("instances = %d", len(st.Instances))
	}
	for _, inst := range st.Instances {
		if inst.State != "healthy" {
			t.Errorf("instance %d state = %q", inst.ID, inst.State)
		}
	}
}

func TestLeastOutstandingPrefersIdleInstance(t *testing.T) {
	e0, gate := gatedEngine(t)
	c := New(Config{Policy: LeastOutstanding}, e0, newEngine(t, nil))

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	// With one outstanding on 0, every new query must prefer idle 1.
	for i := 0; i < 4; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Loads()[1]; got != 4 {
		t.Errorf("idle instance ran %d queries, want 4 (loads %v)", got, c.Loads())
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// Engines carry their configured IDs into instance names.
func TestInstanceNamesFromEngineID(t *testing.T) {
	var es []*core.Engine
	for _, id := range []string{"alpha", "beta"} {
		es = append(es, core.New(newEngine(t, nil).Catalog(), core.Config{ID: id}))
	}
	c := New(Config{}, es...)
	st := c.Status()
	if st.Instances[0].Name != "alpha" || st.Instances[1].Name != "beta" {
		t.Errorf("names = %q, %q", st.Instances[0].Name, st.Instances[1].Name)
	}
	// Rendezvous hashing keys off the name, so distinct names must not
	// all collapse onto one owner for a spread of keys.
	owners := map[int]bool{}
	for i := 0; i < 32; i++ {
		owners[c.AffinityOwner(fmt.Sprintf("query-%d", i))] = true
	}
	if len(owners) != 2 {
		t.Errorf("32 keys landed on %d owners, want 2", len(owners))
	}
}
