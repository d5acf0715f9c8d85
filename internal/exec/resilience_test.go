package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// fakeClock is a minimal deterministic clock: Sleep advances virtual
// time instantly (the full-featured clock lives in internal/chaos;
// exec cannot import it without inverting the layering).
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1e9, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// WithTimeout runs in real time: the hangs these tests bound block on a
// channel, not on the clock.
func (c *fakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	return nil
}

// TestBackoffDelayBounds is the jitter property test: for any base/max
// and attempt, the delay stays within [step/2, step], never exceeds
// max, and never goes non-positive or overflows at high attempt counts.
func TestBackoffDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		base := time.Duration(rng.Int63n(int64(200*time.Millisecond))) + time.Millisecond
		max := base + time.Duration(rng.Int63n(int64(5*time.Second)))
		attempt := rng.Intn(70) + 1 // far past any realistic budget: overflow guard
		noise := rng.Uint64()
		d := BackoffDelay(base, max, attempt, noise)
		if d <= 0 {
			t.Fatalf("trial %d: delay %v <= 0 (base=%v max=%v attempt=%d)", trial, d, base, max, attempt)
		}
		if d > max {
			t.Fatalf("trial %d: delay %v exceeds max %v (attempt=%d)", trial, d, max, attempt)
		}
		// Equal jitter: at least half of the exponential step.
		step := base
		for i := 1; i < attempt; i++ {
			if step >= max/2 {
				step = max
				break
			}
			step <<= 1
		}
		if step > max {
			step = max
		}
		if d < step/2 {
			t.Fatalf("trial %d: delay %v below half-step %v", trial, d, step/2)
		}
	}
	// Zero config takes the defaults.
	if d := BackoffDelay(0, 0, 1, 0); d < DefaultRetryBase/2 || d > DefaultRetryBase {
		t.Errorf("default delay = %v", d)
	}
	// base > max is clamped.
	if d := BackoffDelay(time.Second, 10*time.Millisecond, 3, 42); d > 10*time.Millisecond {
		t.Errorf("clamped delay = %v", d)
	}
}

// flakySource fails the first failN fetches with failErr, then answers.
type flakySource struct {
	name    string
	failN   int
	failErr error
	calls   atomic.Int64
	block   chan struct{} // non-nil: hang until closed or ctx done
	onCall  func(n int64) // non-nil: invoked with the attempt number
}

func (f *flakySource) Name() string                       { return f.name }
func (f *flakySource) Capabilities() catalog.Capabilities { return catalog.Capabilities{} }
func (f *flakySource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	n := f.calls.Add(1)
	if f.onCall != nil {
		f.onCall(n)
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, catalog.Cost{}, ctx.Err()
		}
	}
	if int(n) <= f.failN {
		err := f.failErr
		if err == nil {
			err = fmt.Errorf("%w: %s", sources.ErrUnavailable, f.name)
		}
		return nil, catalog.Cost{}, err
	}
	b := xmldm.NewBuilder()
	return b.Elem(f.name, b.Elem("row", "1")), catalog.Cost{RowsReturned: 1, BytesMoved: 8}, nil
}

// TestRetryBudgetNeverExceeded is the retry-budget property: across
// configurations, attempts never exceed 1+Retries, and a success stops
// the attempts immediately.
func TestRetryBudgetNeverExceeded(t *testing.T) {
	for retries := 0; retries <= 4; retries++ {
		for failN := 0; failN <= 6; failN++ {
			src := &flakySource{name: "s", failN: failN}
			r := newRunner(t, src)
			r.Resilience = Resilience{Retries: retries, RetryBase: time.Millisecond}
			r.Clock = newFakeClock()
			a := r.NewAccess(context.Background(), PolicyFail)
			_, err := a.Roots("s", catalog.Request{})
			budget := int64(1 + retries)
			wantOK := failN < 1+retries
			if got := src.calls.Load(); got > budget {
				t.Errorf("retries=%d failN=%d: %d attempts > budget %d", retries, failN, got, budget)
			} else if wantOK && got != int64(failN+1) {
				t.Errorf("retries=%d failN=%d: %d attempts, want %d", retries, failN, got, failN+1)
			}
			if wantOK != (err == nil) {
				t.Errorf("retries=%d failN=%d: err = %v", retries, failN, err)
			}
		}
	}
}

// TestRetryRespectsContext: a context cancelled during backoff stops
// the retry loop before the budget is spent.
func TestRetryRespectsContext(t *testing.T) {
	src := &flakySource{name: "s", failN: 100}
	r := newRunner(t, src)
	r.Resilience = Resilience{Retries: 50, RetryBase: time.Millisecond}
	clock := newFakeClock()
	r.Clock = clock
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the second attempt; the backoff sleep after it
	// must observe the cancellation and stop the loop.
	src.onCall = func(n int64) {
		if n == 2 {
			cancel()
		}
	}
	_, err := r.NewAccess(ctx, PolicyFail).Roots("s", catalog.Request{})
	if err == nil {
		t.Fatal("cancelled retry loop returned success")
	}
	if got := src.calls.Load(); got != 2 {
		t.Errorf("%d attempts after cancellation, want 2", got)
	}
}

// TestRetryNotAppliedToRequestErrors: deterministic source-side errors
// (not transient) are not retried.
func TestRetryNotAppliedToRequestErrors(t *testing.T) {
	src := &flakySource{name: "s", failN: 100, failErr: errors.New("bad request")}
	r := newRunner(t, src)
	r.Resilience = Resilience{Retries: 5, RetryBase: time.Millisecond}
	r.Clock = newFakeClock()
	if _, err := r.NewAccess(context.Background(), PolicyFail).Roots("s", catalog.Request{}); err == nil {
		t.Fatal("want error")
	}
	if got := src.calls.Load(); got != 1 {
		t.Errorf("request error fetched %d times, want 1", got)
	}
}

// TestRetrySucceedsAndAttributes: fails twice then recovers — the fetch
// succeeds, the completeness report stays complete, and the retries
// surface in the status, FetchStats, and the retry counter.
func TestRetrySucceedsAndAttributes(t *testing.T) {
	src := &flakySource{name: "s", failN: 2}
	r := newRunner(t, src)
	r.Resilience = Resilience{Retries: 2, RetryBase: time.Millisecond}
	r.Clock = newFakeClock()
	reg := obs.NewRegistry()
	r.Metrics = reg
	a := r.NewAccess(context.Background(), PolicyFail)
	roots, err := a.Roots("s", catalog.Request{})
	if err != nil || len(roots) != 1 {
		t.Fatalf("roots = %v, %v", roots, err)
	}
	rep := a.Report()
	if !rep.Complete || rep.Statuses[0].Retries != 2 {
		t.Errorf("report = %+v", rep)
	}
	fs := a.FetchStats()
	if len(fs) != 1 || fs[0].Retries != 2 {
		t.Errorf("fetch stats = %+v", fs)
	}
	if n := reg.Counter("nimble_fetch_retries_total", "source", "s").Value(); n != 2 {
		t.Errorf("nimble_fetch_retries_total = %d", n)
	}
}

// TestAttemptTimeoutBoundsHang: a source that hangs until cancellation
// costs FetchTimeout per attempt instead of hanging the query, and the
// expiry is reported as transient unavailability.
func TestAttemptTimeoutBoundsHang(t *testing.T) {
	src := &flakySource{name: "s", block: make(chan struct{})}
	r := newRunner(t, src)
	r.Resilience = Resilience{FetchTimeout: 10 * time.Millisecond, Retries: 1, RetryBase: time.Millisecond}
	r.Clock = newFakeClock()
	start := time.Now()
	_, err := r.NewAccess(context.Background(), PolicyFail).Roots("s", catalog.Request{})
	if !errors.Is(err, sources.ErrUnavailable) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hang not bounded: %v", elapsed)
	}
	if got := src.calls.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (timeout retried once)", got)
	}
	// Under the partial policy the timeout degrades to a flagged
	// partial result.
	a := r.NewAccess(context.Background(), PolicyPartial)
	if roots, err := a.Roots("s", catalog.Request{}); err != nil || roots != nil {
		t.Errorf("partial roots = %v, %v", roots, err)
	}
	if rep := a.Report(); rep.Complete {
		t.Error("report should flag the hung source")
	}
}

// TestBreakerStateMachine drives the closed→open→half-open transitions
// table-style.
func TestBreakerStateMachine(t *testing.T) {
	clock := newFakeClock()
	set := NewBreakerSet(3, time.Second, clock, nil)
	b := set.For("s")

	type step struct {
		op        string // "fail", "ok", "advance", "allow", "deny", "probe"
		wantState BreakerState
	}
	steps := []step{
		{"allow", BreakerClosed},
		{"fail", BreakerClosed},
		{"fail", BreakerClosed},
		{"fail", BreakerOpen}, // threshold reached
		{"deny", BreakerOpen}, // fail-fast inside cooldown
		{"advance", BreakerOpen},
		{"probe", BreakerHalfOpen}, // cooldown elapsed: one probe allowed
		{"deny", BreakerHalfOpen},  // second caller denied while probing
		{"fail", BreakerOpen},      // probe failed: re-open
		{"advance", BreakerOpen},
		{"probe", BreakerHalfOpen},
		{"ok", BreakerClosed}, // probe succeeded: close
		{"allow", BreakerClosed},
		{"fail", BreakerClosed},
		{"ok", BreakerClosed}, // success resets the failure count
		{"fail", BreakerClosed},
		{"fail", BreakerClosed},
		{"fail", BreakerOpen},
	}
	for i, s := range steps {
		switch s.op {
		case "fail":
			b.Failure()
		case "ok":
			b.Success()
		case "advance":
			clock.Advance(time.Second)
		case "allow":
			if ok, probe := b.Allow(); !ok || probe {
				t.Fatalf("step %d: Allow = %v, %v, want plain admission", i, ok, probe)
			}
		case "deny":
			if ok, _ := b.Allow(); ok {
				t.Fatalf("step %d: Allow = true, want denial", i)
			}
		case "probe":
			if ok, probe := b.Allow(); !ok || !probe {
				t.Fatalf("step %d: Allow = %v, %v, want probe", i, ok, probe)
			}
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, got, s.wantState)
		}
	}
}

// TestBreakerQuarantineInFetch: a dead source trips the breaker through
// the fetch path; later queries fail fast with the breaker noted in the
// status, and recovery closes it via the half-open probe.
func TestBreakerQuarantineInFetch(t *testing.T) {
	src := &flakySource{name: "dead", failN: 3}
	r := newRunner(t, src)
	clock := newFakeClock()
	r.Clock = clock
	reg := obs.NewRegistry()
	r.Metrics = reg
	r.Breakers = NewBreakerSet(3, time.Second, clock, reg)

	// Three failing queries (no retries) trip the breaker.
	for i := 0; i < 3; i++ {
		a := r.NewAccess(context.Background(), PolicyPartial)
		a.Roots("dead", catalog.Request{})
	}
	if got := r.Breakers.States()["dead"]; got != "open" {
		t.Fatalf("breaker state = %q, want open", got)
	}
	if v := reg.Gauge("nimble_breaker_state", "source", "dead").Value(); v != float64(BreakerOpen) {
		t.Errorf("nimble_breaker_state = %v", v)
	}

	// While open, a query skips the source without touching it.
	before := src.calls.Load()
	a := r.NewAccess(context.Background(), PolicyPartial)
	if roots, err := a.Roots("dead", catalog.Request{}); err != nil || roots != nil {
		t.Fatalf("open-breaker roots = %v, %v", roots, err)
	}
	if src.calls.Load() != before {
		t.Error("open breaker still reached the source")
	}
	rep := a.Report()
	if rep.Complete || rep.Statuses[0].Breaker != "open" ||
		!strings.Contains(rep.Statuses[0].Err, "circuit breaker open") {
		t.Errorf("report = %+v", rep)
	}

	// After the cooldown the probe goes through; the source has
	// recovered, so the breaker closes again.
	clock.Advance(time.Second)
	a2 := r.NewAccess(context.Background(), PolicyPartial)
	roots, err := a2.Roots("dead", catalog.Request{})
	if err != nil || len(roots) != 1 {
		t.Fatalf("probe roots = %v, %v", roots, err)
	}
	rep2 := a2.Report()
	if !rep2.Complete || rep2.Statuses[0].Breaker != "half-open" {
		t.Errorf("probe report = %+v", rep2)
	}
	if got := r.Breakers.States()["dead"]; got != "closed" {
		t.Errorf("breaker after recovery = %q", got)
	}
}

// TestBreakerSharedAcrossAccesses: one breaker set serves concurrent
// accesses racing through state transitions (run under -race).
func TestBreakerSharedAcrossAccesses(t *testing.T) {
	src := &flakySource{name: "flappy", failN: 0}
	r := newRunner(t, src)
	clock := newFakeClock()
	r.Clock = clock
	r.Resilience = Resilience{Retries: 1, RetryBase: time.Millisecond}
	r.Breakers = NewBreakerSet(2, 10*time.Millisecond, clock, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a := r.NewAccess(context.Background(), PolicyPartial)
				if _, err := a.Roots("flappy", catalog.Request{Native: fmt.Sprintf("q%d", i)}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%5 == 0 {
					clock.Advance(20 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.Breakers.States()["flappy"]; st == "" {
		t.Error("breaker never tracked the source")
	}
}
