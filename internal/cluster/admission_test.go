package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestQueueFullSheds: once every slot is held and the wait queue is at
// its bound, further callers shed immediately with an OverloadError
// carrying a usable Retry-After hint. Every caller has a deadline, so a
// slot that is never released fails the test instead of hanging it.
func TestQueueFullSheds(t *testing.T) {
	e, gate := gatedEngine(t)
	c := New(Config{Policy: RoundRobin, Capacity: 1, QueueLimit: 1}, e)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	queued := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, testQuery)
		queued <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is at its bound: the third caller is refused immediately.
	_, err := c.Query(ctx, testQuery)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if oe.Reason != "queue full" {
		t.Errorf("reason = %q", oe.Reason)
	}
	if s := oe.RetryAfterSeconds(); s < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", s)
	}
	if st := c.Status(); st.ShedQueueFull != 1 {
		t.Errorf("shed_queue_full = %d, want 1", st.ShedQueueFull)
	}

	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineSheds: a caller whose deadline would expire while queued
// is refused up front instead of waiting just to time out.
func TestDeadlineSheds(t *testing.T) {
	e, gate := gatedEngine(t)
	defer close(gate)
	c := New(Config{Policy: RoundRobin, Capacity: 1}, e)

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	// The estimator's floor is defaultServiceEstimate (10ms); a 5ms
	// deadline cannot cover the predicted queue wait (but is live long
	// enough to reach the admission check).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.Query(ctx, testQuery)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if oe.Reason != "deadline shorter than queue wait" {
		t.Errorf("reason = %q", oe.Reason)
	}
	if st := c.Status(); st.ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
}

// TestCancelWhileQueued: a queued caller whose context dies leaves the
// queue with the context's error and without leaking its queue slot.
func TestCancelWhileQueued(t *testing.T) {
	e, gate := gatedEngine(t)
	c := New(Config{Policy: RoundRobin, Capacity: 1}, e)

	held := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), testQuery)
		held <- err
	}()
	waitInFlight(t, c, 0, 1)

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, testQuery)
		waiting <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("caller never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The slot was not corrupted: it comes back to an empty queue, not to
	// the departed waiter, and is reusable.
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	requireIdle(t, c)
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Query(ctx, testQuery); err != nil {
		t.Fatalf("slot unusable after cancelled waiter: %v", err)
	}
}

// TestUnboundedQueueNeverSheds: with no QueueLimit, saturated callers
// wait instead of shedding.
func TestUnboundedQueueNeverSheds(t *testing.T) {
	e, gate := gatedEngine(t)
	c := New(Config{Policy: RoundRobin, Capacity: 1}, e)

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Query(context.Background(), testQuery)
			errs <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 3", c.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	requireIdle(t, c)
}
