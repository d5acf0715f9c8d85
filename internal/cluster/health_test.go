package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exec"
)

// TestChaosEjectionAndReadmission is the end-to-end health story: a
// chaos-faulted instance fails consecutive probes and is ejected; while
// ejected it serves zero user queries and every request succeeds on the
// healthy survivor; once the fault clears and the cooldown elapses, a
// half-open probe readmits it. All on a fake clock — no wall time.
func TestChaosEjectionAndReadmission(t *testing.T) {
	fc := chaos.NewFakeClock()
	// Instance 0's source fails its first two fetches then recovers.
	sick := newEngine(t, chaos.Fail(2))
	well := newEngine(t, nil)
	c := New(Config{
		Policy:        RoundRobin,
		ProbeInterval: time.Second,
		EjectAfter:    2,
		ReadmitAfter:  5 * time.Second,
		Clock:         fc,
		Probe:         probeOnly(sick, QueryProbe(sick, testQuery)),
	}, sick, well)
	ctx := context.Background()

	// Two failed probes eject instance 0.
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Fatalf("after 1 failed probe state = %q, want healthy", got)
	}
	fc.Advance(time.Second)
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "ejected" {
		t.Fatalf("after 2 failed probes state = %q, want ejected", got)
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want 1", c.Healthy())
	}

	// While ejected: every user query succeeds, none touches instance 0.
	loads0 := c.Loads()[0]
	for i := 0; i < 6; i++ {
		res, err := c.Query(ctx, testQuery)
		if err != nil {
			t.Fatalf("query %d failed during ejection: %v", i, err)
		}
		if !res.Completeness.Complete {
			t.Fatalf("query %d incomplete during ejection: routed to the sick instance?", i)
		}
	}
	if got := c.Loads()[0]; got != loads0 {
		t.Errorf("ejected instance ran %d user queries", got-loads0)
	}

	// Cooldown not yet elapsed: the probe is withheld.
	fc.Advance(2 * time.Second)
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "ejected" {
		t.Fatalf("probed before cooldown: state = %q", got)
	}

	// Past the cooldown the half-open probe runs; the chaos script has
	// spent its faults, so it succeeds and readmits the instance.
	fc.Advance(4 * time.Second)
	if got := c.Status().Instances[0].State; got != "half-open" {
		t.Fatalf("state = %q, want half-open once cooldown elapsed", got)
	}
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Fatalf("state = %q after recovery probe, want healthy", got)
	}
	if c.Healthy() != 2 {
		t.Errorf("healthy = %d, want 2", c.Healthy())
	}
	// Traffic flows to it again.
	loads0 = c.Loads()[0]
	for i := 0; i < 4; i++ {
		if _, err := c.Query(ctx, testQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Loads()[0]; got != loads0+2 {
		t.Errorf("readmitted instance ran %d of 4 round-robin queries, want 2", got-loads0)
	}
}

// TestHalfOpenFailureRestartsCooldown: a failed half-open probe re-ejects
// with a fresh cooldown instead of hammering the sick instance.
func TestHalfOpenFailureRestartsCooldown(t *testing.T) {
	fc := chaos.NewFakeClock()
	sick := newEngine(t, chaos.Fail(3)) // fails eject probes 1,2 AND the first half-open probe
	c := New(Config{
		Policy:        RoundRobin,
		ProbeInterval: time.Second,
		EjectAfter:    2,
		ReadmitAfter:  5 * time.Second,
		Clock:         fc,
		Probe:         probeOnly(sick, QueryProbe(sick, testQuery)),
	}, sick, newEngine(t, nil))
	ctx := context.Background()

	c.ProbeNow(ctx)
	fc.Advance(time.Second)
	c.ProbeNow(ctx) // ejected
	fc.Advance(5 * time.Second)
	c.ProbeNow(ctx) // half-open probe fails: fresh cooldown
	if got := c.Status().Instances[0].State; got != "ejected" {
		t.Fatalf("state = %q after failed half-open probe, want ejected", got)
	}
	fc.Advance(2 * time.Second) // old cooldown would have expired by now
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "ejected" {
		t.Fatalf("cooldown did not restart: state = %q", got)
	}
	fc.Advance(4 * time.Second)
	c.ProbeNow(ctx) // fault budget spent: recovers
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Errorf("state = %q, want healthy", got)
	}
}

// TestBreakerProbeEjects wires PR-4's circuit breakers into health: an
// instance whose source breaker is open fails its probes and is
// ejected; once the breaker closes it is readmitted.
func TestBreakerProbeEjects(t *testing.T) {
	fc := chaos.NewFakeClock()
	bs := exec.NewBreakerSet(1, time.Minute, fc, nil)
	e := core.New(newEngine(t, nil).Catalog(), core.Config{Breakers: bs})
	c := New(Config{
		Policy:        RoundRobin,
		ProbeInterval: time.Second,
		EjectAfter:    1,
		ReadmitAfter:  5 * time.Second,
		Clock:         fc,
		Probe:         probeOnly(e, BreakerProbe(bs, "db")),
	}, e, newEngine(t, nil))
	ctx := context.Background()

	// Breaker closed: probe passes.
	bs.For("db").Success()
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Fatalf("state = %q with closed breaker", got)
	}

	// Open the breaker (threshold 1): next probe ejects.
	bs.For("db").Failure()
	fc.Advance(time.Second)
	c.ProbeNow(ctx)
	st := c.Status().Instances[0]
	if st.State != "ejected" {
		t.Fatalf("state = %q with open breaker, want ejected", st.State)
	}
	if st.Breakers["db"] != "open" {
		t.Errorf("inspector breakers = %v", st.Breakers)
	}

	// Close the breaker; after the cooldown the instance is readmitted.
	bs.For("db").Success()
	fc.Advance(5 * time.Second)
	c.ProbeNow(ctx)
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Errorf("state = %q after breaker closed, want healthy", got)
	}
}

// TestUserFailuresNeverEject: health is probe-driven only — a flood of
// failing user queries must not change instance state.
func TestUserFailuresNeverEject(t *testing.T) {
	es := newEngines(t, 2)
	c := New(Config{Policy: RoundRobin, Probe: probeOnly(es[0], func(context.Context) error { return nil })}, es...)
	for i := 0; i < 10; i++ {
		// A malformed query fails on whatever instance it routes to.
		if _, err := c.Query(context.Background(), "NOT A QUERY"); err == nil {
			t.Fatal("malformed query did not fail")
		}
	}
	if c.Healthy() != 2 {
		t.Errorf("healthy = %d after user-query failures, want 2", c.Healthy())
	}
}

// TestEjectAllThenRecover: with every instance ejected there is no
// routable capacity — callers wait (or shed on deadline) rather than
// erroring on a dead instance — and recovery drains the queue.
func TestEjectAllThenRecover(t *testing.T) {
	fc := chaos.NewFakeClock()
	e := newEngine(t, nil)
	c := New(Config{
		Policy:       RoundRobin,
		ReadmitAfter: 5 * time.Second,
		Clock:        fc,
		Probe:        func(e *core.Engine) Probe { return QueryProbe(e, testQuery) },
	}, e)
	c.Eject(0)
	if c.Healthy() != 0 {
		t.Fatalf("healthy = %d after Eject", c.Healthy())
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("caller never queued against a fully ejected cluster")
		}
		time.Sleep(time.Millisecond)
	}

	// Readmission dispatches the queued caller.
	fc.Advance(5 * time.Second)
	c.ProbeNow(context.Background())
	if err := <-done; err != nil {
		t.Fatalf("queued query after readmission: %v", err)
	}
}

// TestStartProbing drives the background prober on the real clock with
// a tiny interval — the daemon path.
func TestStartProbing(t *testing.T) {
	sick := newEngine(t, chaos.Fail(1000))
	c := New(Config{
		Policy:        RoundRobin,
		ProbeInterval: time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  time.Minute,
		Probe:         probeOnly(sick, QueryProbe(sick, testQuery)),
	}, sick, newEngine(t, nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.StartProbing(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for c.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("background prober never ejected the sick instance")
		}
		time.Sleep(time.Millisecond)
	}
}
