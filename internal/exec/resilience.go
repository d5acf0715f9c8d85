// Fetch resilience: per-attempt timeouts, bounded retry with
// exponential backoff + jitter, and per-source circuit breakers. The
// paper's §3.4 promise — the system "behaves intelligently when sources
// are unavailable" — needs more than a completeness flag once sources
// flap, hang, or return garbage: a transient failure should be retried,
// a hung source should cost a bounded timeout rather than the query,
// and a persistently dead source should be quarantined so later queries
// skip it without paying that timeout again.
package exec

import (
	"context"
	"hash/fnv"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for the resilience knobs (used when a field is left zero but
// the feature itself is enabled).
const (
	DefaultRetryBase        = 50 * time.Millisecond
	DefaultRetryMax         = 2 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// Resilience tunes the remote-fetch retry layer. The zero value
// disables all of it (no per-attempt timeout, no retries), preserving
// the bare fetch behaviour.
type Resilience struct {
	// FetchTimeout bounds each remote fetch attempt; a hung source
	// costs at most this per attempt instead of hanging the query
	// (0 = no per-attempt timeout).
	FetchTimeout time.Duration
	// Retries is how many additional attempts a transient failure
	// (source unavailable, malformed response, attempt timeout) gets
	// after the first (0 = no retries).
	Retries int
	// RetryBase is the first backoff step; attempt n waits roughly
	// RetryBase<<(n-1), jittered (0 = DefaultRetryBase).
	RetryBase time.Duration
	// RetryMax caps the exponential growth (0 = DefaultRetryMax).
	RetryMax time.Duration
}

// Clock abstracts time for the resilience layer so tests can inject
// deterministic fake time (see internal/chaos.FakeClock).
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout is context.WithTimeout with the deadline d from now
	// on this clock.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// RealClock is the production Clock: wall time and timer sleeps. Every
// layer that takes an injectable Clock defaults to it.
var RealClock Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BackoffDelay computes the wait before retry attempt (1-based) using
// equal jitter: half the exponential step is fixed, half is scaled by
// noise, so concurrent retries against one source decorrelate while the
// delay stays within [step/2, step] and never exceeds max.
func BackoffDelay(base, max time.Duration, attempt int, noise uint64) time.Duration {
	if base <= 0 {
		base = DefaultRetryBase
	}
	if max <= 0 {
		max = DefaultRetryMax
	}
	if base > max {
		base = max
	}
	if attempt < 1 {
		attempt = 1
	}
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
	half := step / 2
	if half <= 0 {
		return step
	}
	return half + time.Duration(noise%uint64(half+1))
}

// jitterNoise derives deterministic backoff noise from the source name,
// the attempt number, and the clock reading — with a fake clock the
// whole schedule replays byte-identically.
func jitterNoise(source string, attempt int, now time.Time) uint64 {
	h := fnv.New64a()
	h.Write([]byte(source))
	var buf [16]byte
	n := now.UnixNano()
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
		buf[8+i] = byte(attempt >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: requests flow; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one probe request is allowed through; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
	// BreakerOpen: requests fail fast until the cooldown elapses.
	BreakerOpen
)

// String names the state as exposed on /debug/queries and in EXPLAIN
// fetch attribution.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a per-source circuit breaker: closed while the source
// answers, open after Threshold consecutive transient failures (fetches
// fail fast, so queries under PolicyPartial skip the source without
// paying its timeout), and half-open after the cooldown, when a single
// probe decides. Safe for concurrent use.
type Breaker struct {
	source    string
	threshold int
	cooldown  time.Duration
	clock     Clock
	onState   func(source string, s BreakerState) // transition hook (metrics)

	mu       sync.Mutex
	state    BreakerState // guarded by mu
	failures int          // guarded by mu
	openedAt time.Time    // guarded by mu
	probing  bool         // guarded by mu
}

// Allow reports whether a fetch may proceed; probe is true when this
// caller is the half-open probe whose outcome decides the state.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// Success records a fetch that reached the source (an answer, even an
// error about the request itself, proves the source is alive).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.setStateLocked(BreakerClosed)
	}
}

// Failure records a transient fetch failure; the threshold'th
// consecutive one opens the breaker, and a failed half-open probe
// re-opens it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	switch b.state {
	case BreakerClosed:
		if b.failures >= b.threshold {
			b.openedAt = b.clock.Now()
			b.setStateLocked(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.openedAt = b.clock.Now()
		b.setStateLocked(BreakerOpen)
	}
}

// setStateLocked transitions the state and fires the hook; the caller
// holds b.mu.
func (b *Breaker) setStateLocked(s BreakerState) {
	b.state = s
	if b.onState != nil {
		b.onState(b.source, s)
	}
}

// State returns the current position (cooldown expiry is only observed
// by Allow, so an idle open breaker reports open until probed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSet holds one Breaker per source. One set is shared across
// every engine instance of a deployment so all queries agree on which
// sources are quarantined. Safe for concurrent use.
type BreakerSet struct {
	threshold int
	cooldown  time.Duration
	clock     Clock
	metrics   *obs.Registry

	// log is swapped atomically (recordState fires under breaker locks,
	// so it must not take the set lock); never nil after NewBreakerSet.
	log atomic.Pointer[slog.Logger]

	mu       sync.Mutex
	breakers map[string]*Breaker // guarded by mu
}

// NewBreakerSet creates a set. threshold <= 0 and cooldown <= 0 take
// the defaults; clock nil uses real time; metrics nil disables the
// nimble_breaker_state gauge and transition counter.
func NewBreakerSet(threshold int, cooldown time.Duration, clock Clock, metrics *obs.Registry) *BreakerSet {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if clock == nil {
		clock = RealClock
	}
	s := &BreakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		clock:     clock,
		metrics:   metrics,
		breakers:  make(map[string]*Breaker),
	}
	s.log.Store(obs.NopLogger())
	return s
}

// SetLogger routes breaker state transitions to log (nil restores the
// discard logger).
func (s *BreakerSet) SetLogger(log *slog.Logger) {
	if s == nil {
		return
	}
	if log == nil {
		log = obs.NopLogger()
	}
	s.log.Store(log)
}

// For returns (creating if needed) the source's breaker.
func (s *BreakerSet) For(source string) *Breaker {
	key := strings.ToLower(source)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		b = &Breaker{
			source:    key,
			threshold: s.threshold,
			cooldown:  s.cooldown,
			clock:     s.clock,
			onState:   s.recordState,
		}
		s.breakers[key] = b
		s.recordState(key, BreakerClosed)
	}
	return b
}

// recordState exports a transition: the nimble_breaker_state gauge
// (0 closed, 1 half-open, 2 open), a transition counter, and a
// structured log line.
func (s *BreakerSet) recordState(source string, state BreakerState) {
	if log := s.log.Load(); log != nil {
		log.Info("breaker transition", "source", source, "state", state.String())
	}
	if s.metrics == nil {
		return
	}
	s.metrics.Gauge("nimble_breaker_state", "source", source).Set(float64(state))
	s.metrics.Counter("nimble_breaker_transitions_total", "source", source, "to", state.String()).Inc()
}

// States snapshots every tracked source's breaker position (the
// /debug/queries "breakers" field). Nil-safe: a nil set reports no
// breakers.
func (s *BreakerSet) States() map[string]string {
	out := map[string]string{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, b := range s.breakers {
		out[name] = b.State().String()
	}
	return out
}
