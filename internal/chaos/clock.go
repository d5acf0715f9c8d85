package chaos

import (
	"context"
	"slices"
	"sync"
	"time"
)

// FakeClock is a deterministic clock for the resilience layer and the
// latency faults: Sleep advances virtual time instantly (so backoff
// schedules and latency injection cost no wall-clock time), Advance
// moves time forward manually (so breaker cooldowns elapse on demand),
// and a WithTimeout deadline passes when virtual time reaches it (so an
// attempt deadline bounds a slow or hung fault that sleeps on the same
// clock, whatever the host's speed). It satisfies exec.Clock
// structurally. Safe for concurrent use.
type FakeClock struct {
	mu        sync.Mutex
	now       time.Time     // guarded by mu
	sleeps    int           // guarded by mu
	slept     time.Duration // guarded by mu
	deadlines []*deadline   // guarded by mu; pending, in no order
}

// deadline is one pending WithTimeout context.
type deadline struct {
	at     time.Time
	cancel context.CancelCauseFunc
}

// NewFakeClock starts virtual time at a fixed epoch so two runs observe
// identical timestamps.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(1_000_000_000, 0)}
}

// Now returns the current virtual time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(nil, c.now.Add(d))
}

// Sleep advances virtual time by d and returns immediately; a done
// context returns its error without advancing (matching the real
// clock's cancellation contract), and a sleep that reaches a deadline
// ending ctx stops there and returns ctx's error.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	start := c.now
	c.advanceLocked(ctx, c.now.Add(d))
	c.sleeps++
	c.slept += c.now.Sub(start)
	c.mu.Unlock()
	return ctx.Err()
}

// WithTimeout returns a child of ctx that ends, with cause
// context.DeadlineExceeded, once virtual time has advanced by d.
func (c *FakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(ctx)
	c.mu.Lock()
	dl := &deadline{at: c.now.Add(d), cancel: cancel}
	c.deadlines = append(c.deadlines, dl)
	c.advanceLocked(nil, c.now) // d <= 0 has passed already
	c.mu.Unlock()
	return ctx, func() {
		c.mu.Lock()
		c.deadlines = slices.DeleteFunc(c.deadlines, func(p *deadline) bool { return p == dl })
		c.mu.Unlock()
		cancel(context.Canceled)
	}
}

// advanceLocked moves virtual time to end, passing the deadlines due by
// then in order; it stops at the first one that ends ctx (nil = none
// does).
func (c *FakeClock) advanceLocked(ctx context.Context, end time.Time) {
	for {
		next := -1
		for i, dl := range c.deadlines {
			if !dl.at.After(end) && (next < 0 || dl.at.Before(c.deadlines[next].at)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		dl := c.deadlines[next]
		c.deadlines = slices.Delete(c.deadlines, next, next+1)
		if dl.at.After(c.now) {
			c.now = dl.at
		}
		dl.cancel(context.DeadlineExceeded)
		if ctx != nil && ctx.Err() != nil {
			return
		}
	}
	if end.After(c.now) {
		c.now = end
	}
}

// Slept reports how many sleeps ran and their accumulated virtual
// duration.
func (c *FakeClock) Slept() (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleeps, c.slept
}
