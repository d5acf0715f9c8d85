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

// TestRestoreDispatchesQueuedCaller: with every instance drained there
// is no routable capacity, so a caller without a deadline queues (one
// with a deadline shorter than the no-capacity wait is shed), and
// Restore dispatches the queued caller to the restored instance.
func TestRestoreDispatchesQueuedCaller(t *testing.T) {
	c := New(Config{Policy: RoundRobin}, newEngines(t, 2)...)
	if err := c.DrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := c.Query(ctx, testQuery)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != noCapacityWait {
		t.Fatalf("deadline caller on a drained cluster: err = %v, want shed with retry after %s", err, noCapacityWait)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("caller never queued against a fully drained cluster")
		}
		time.Sleep(time.Millisecond)
	}

	c.Restore(1)
	if err := <-done; err != nil {
		t.Fatalf("queued query after restore: %v", err)
	}
	if got := c.Loads(); got[0] != 0 || got[1] != 1 {
		t.Errorf("loads = %v, want the queued caller on restored instance 1", got)
	}
	if got := c.Status().Instances[0].State; got != "removed" {
		t.Errorf("instance 0 state = %q, want removed", got)
	}
	requireIdle(t, c)
}

// TestClusterStorm is the -race stress test: concurrent queries (some
// against a chaos-flapping instance), drains, restores, and status
// snapshots all interleave. Correctness bar: no data race, no deadlock,
// and every query either succeeds or sheds with a typed overload error.
func TestClusterStorm(t *testing.T) {
	reg := obs.NewRegistry()
	engines := []*core.Engine{newEngine(t, chaos.Flap{Up: 3, Down: 2})}
	for i := 0; i < 3; i++ {
		engines = append(engines, newEngine(t, nil))
	}
	c := New(Config{
		Policy:     LeastOutstanding,
		Capacity:   4,
		QueueLimit: 64,
		Metrics:    reg,
		Seed:       7,
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
// end-to-end pass over every policy. An instance whose source fails its
// first two fetches stays in rotation and answers flagged partial, never
// an error; a drained instance leaves gracefully while the rest keep
// serving.
func TestClusterSmoke(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, LeastOutstanding, PowerOfTwo, CacheAffinity} {
		t.Run(policy.String(), func(t *testing.T) {
			engines := []*core.Engine{newEngine(t, chaos.Fail(2))}
			for i := 0; i < 3; i++ {
				engines = append(engines, newEngine(t, nil))
			}
			c := New(Config{
				Policy:     policy,
				Capacity:   4,
				QueueLimit: 32,
				Seed:       11,
			}, engines...)
			ctx := context.Background()

			// Every query answers; the faulted source's are flagged.
			for i := 0; i < 12; i++ {
				res, err := c.Query(ctx, testQuery)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !res.Completeness.Complete {
					if failed := res.Completeness.FailedSources(); len(failed) != 1 || failed[0] != "db" {
						t.Fatalf("query %d: failed sources = %v, want [db]", i, failed)
					}
				}
			}
			for _, inst := range c.Status().Instances {
				if inst.State != "healthy" {
					t.Errorf("instance %d state = %q, want healthy", inst.ID, inst.State)
				}
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
			requireIdle(t, c)
		})
	}
}
