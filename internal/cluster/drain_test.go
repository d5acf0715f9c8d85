package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestDrainWaitsForInFlight: drain stops routing immediately but only
// removes the instance after its in-flight queries finish.
func TestDrainWaitsForInFlight(t *testing.T) {
	e0, gate := gatedEngine(t)
	c := New(Config{Policy: RoundRobin}, e0, newEngine(t, nil))

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background(), 0) }()

	// Draining: unrouted but not yet removed, and new queries flow to
	// the survivor.
	deadline := time.Now().Add(2 * time.Second)
	for c.Status().Instances[0].State != "draining" {
		if time.Now().After(deadline) {
			t.Fatalf("state = %q, want draining", c.Status().Instances[0].State)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Loads()[1]; got != 3 {
		t.Errorf("survivor ran %d queries, want 3", got)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a query in flight: %v", err)
	default:
	}

	// The in-flight query finishes; drain completes and removes.
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("held query: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := c.Status().Instances[0].State; got != "removed" {
		t.Errorf("state = %q after drain, want removed", got)
	}
}

// TestDrainTimeout: a drain bounded by a context reports the deadline
// while the instance stays draining (still unrouted).
func TestDrainTimeout(t *testing.T) {
	e0, gate := gatedEngine(t)
	defer close(gate)
	c := New(Config{Policy: RoundRobin}, e0, newEngine(t, nil))

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx, 0); err != context.DeadlineExceeded {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if got := c.Status().Instances[0].State; got != "draining" {
		t.Errorf("state = %q after timed-out drain", got)
	}
}

// TestRestoreAfterDrain: a drained instance can rejoin the fleet.
func TestRestoreAfterDrain(t *testing.T) {
	c := New(Config{Policy: RoundRobin}, newEngines(t, 2)...)
	if err := c.Drain(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Status().Instances[0].State; got != "removed" {
		t.Fatalf("state = %q", got)
	}
	c.Restore(0)
	if got := c.Status().Instances[0].State; got != "healthy" {
		t.Fatalf("state = %q after restore", got)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Loads()[0]; got != 2 {
		t.Errorf("restored instance ran %d of 4 queries, want 2", got)
	}
}

// TestDrainAll empties the whole fleet (the daemon shutdown path).
func TestDrainAll(t *testing.T) {
	c := New(Config{Policy: RoundRobin}, newEngines(t, 3)...)
	if err := c.DrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, inst := range c.Status().Instances {
		if inst.State != "removed" {
			t.Errorf("instance %d state = %q", inst.ID, inst.State)
		}
	}
}

// TestClusterStorm is the -race stress test: concurrent queries, health
// probes against a chaos-flapping instance, drains, restores, and
// status snapshots all interleave. Correctness bar: no data race, no
// deadlock, and every query either succeeds or sheds with a typed
// overload error.
func TestClusterStorm(t *testing.T) {
	fc := chaos.NewFakeClock()
	reg := obs.NewRegistry()
	flappy := newEngine(t, chaos.Flap{Up: 3, Down: 2})
	engines := []*core.Engine{flappy}
	for i := 0; i < 3; i++ {
		engines = append(engines, newEngine(t, nil))
	}
	c := New(Config{
		Policy:        LeastOutstanding,
		Capacity:      4,
		QueueLimit:    64,
		ProbeInterval: time.Second,
		EjectAfter:    2,
		ReadmitAfter:  3 * time.Second,
		Clock:         fc,
		Metrics:       reg,
		Seed:          7,
		Probe:         probeOnly(flappy, QueryProbe(flappy, testQuery)),
	}, engines...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Query storm.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := c.Query(ctx, testQuery)
				if err != nil {
					var oe *OverloadError
					if ctx.Err() != nil || errors.As(err, &oe) {
						continue
					}
					t.Errorf("query: %v", err)
					return
				}
				_ = res
			}
		}()
	}
	// Prober.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			fc.Advance(time.Second)
			c.ProbeNow(ctx)
		}
	}()
	// Drain/restore churn on instance 3.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			dctx, dcancel := context.WithTimeout(ctx, 100*time.Millisecond)
			_ = c.Drain(dctx, 3)
			dcancel()
			c.Restore(3)
		}
	}()
	// Inspector churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = c.Status()
			_ = c.Healthy()
			_ = c.Queued()
			_ = c.CacheStats()
		}
	}()
	wg.Wait()

	// The fleet settles: restore everything, and a final query works.
	for i := 0; i < c.Instances(); i++ {
		c.Restore(i)
	}
	if _, err := c.Query(context.Background(), testQuery); err != nil {
		t.Fatalf("query after storm: %v", err)
	}
	requireIdle(t, c)
}

// TestClusterSmoke is the `make cluster-smoke` target: a compact
// end-to-end pass over every policy with a chaos-faulted instance being
// ejected and readmitted along the way.
func TestClusterSmoke(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, LeastOutstanding, PowerOfTwo, CacheAffinity} {
		t.Run(policy.String(), func(t *testing.T) {
			fc := chaos.NewFakeClock()
			sick := newEngine(t, chaos.Fail(2))
			engines := []*core.Engine{sick}
			for i := 0; i < 3; i++ {
				engines = append(engines, newEngine(t, nil))
			}
			c := New(Config{
				Policy:        policy,
				Capacity:      4,
				QueueLimit:    32,
				ProbeInterval: time.Second,
				EjectAfter:    2,
				ReadmitAfter:  3 * time.Second,
				Clock:         fc,
				Seed:          11,
				Probe:         probeOnly(sick, QueryProbe(sick, testQuery)),
			}, engines...)
			ctx := context.Background()

			// Eject the sick instance.
			c.ProbeNow(ctx)
			fc.Advance(time.Second)
			c.ProbeNow(ctx)
			if c.Healthy() != 3 {
				t.Fatalf("healthy = %d after ejection, want 3", c.Healthy())
			}
			// Zero failed requests while ejected.
			for i := 0; i < 12; i++ {
				res, err := c.Query(ctx, testQuery)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !res.Completeness.Complete {
					t.Fatalf("query %d incomplete: routed to ejected instance", i)
				}
			}
			// Recover and readmit.
			fc.Advance(3 * time.Second)
			c.ProbeNow(ctx)
			if c.Healthy() != 4 {
				t.Fatalf("healthy = %d after readmission, want 4", c.Healthy())
			}
			// Drain one healthy instance and keep serving.
			if err := c.Drain(ctx, 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if _, err := c.Query(ctx, testQuery); err != nil {
					t.Fatalf("query after drain: %v", err)
				}
			}
			if got := c.Status().Instances[1].State; got != "removed" {
				t.Errorf("drained instance state = %q", got)
			}
		})
	}
}
