package sched

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// checkInvariants asserts the core accounting invariants on a snapshot:
// granted never exceeds the budget, and granted + free covers the budget
// exactly (no slot minted, no slot lost).
func checkInvariants(t *testing.T, snap Snapshot) {
	t.Helper()
	if snap.Granted < 0 || snap.Free < 0 {
		t.Fatalf("negative accounting: %+v", snap)
	}
	if snap.Granted > snap.Budget {
		t.Fatalf("granted %d exceeds budget %d: %+v", snap.Granted, snap.Budget, snap)
	}
	if snap.Granted+snap.Free != snap.Budget {
		t.Fatalf("granted %d + free %d != budget %d: %+v", snap.Granted, snap.Free, snap.Budget, snap)
	}
}

func TestAcquireGrantsUpToBudget(t *testing.T) {
	s := New(Config{Budget: 4})
	g := s.Acquire(3, Interactive)
	if got := g.Degree(); got != 3 {
		t.Fatalf("degree = %d, want 3 (budget 4 has room)", got)
	}
	snap := s.Snap()
	checkInvariants(t, snap)
	if snap.Granted != 2 || snap.Queries != 1 || snap.Downgrades != 0 {
		t.Fatalf("snap = %+v, want granted 2 (degree 3 costs 2 slots)", snap)
	}
	g.Release()
	snap = s.Snap()
	checkInvariants(t, snap)
	if snap.Granted != 0 || snap.Queries != 0 {
		t.Fatalf("after release: %+v, want all zero", snap)
	}
}

func TestAcquireNeverBlocksAtFloorOne(t *testing.T) {
	s := New(Config{Budget: 1})
	// Exhaust the budget, then keep admitting: every further query gets
	// the serial floor immediately — Acquire never blocks.
	first := s.Acquire(2, Interactive)
	if first.Degree() != 2 {
		t.Fatalf("first degree = %d, want 2", first.Degree())
	}
	var rest []*Grant
	for i := 0; i < 8; i++ {
		g := s.Acquire(4, Interactive)
		if g.Degree() != 1 {
			t.Fatalf("grant %d degree = %d, want serial floor 1", i, g.Degree())
		}
		rest = append(rest, g)
	}
	checkInvariants(t, s.Snap())
	if got := s.Snap().Downgrades; got != 8 {
		t.Fatalf("downgrades = %d, want 8", got)
	}
	first.Release()
	for _, g := range rest {
		g.Release()
	}
	if snap := s.Snap(); snap.Granted != 0 || snap.Queries != 0 {
		t.Fatalf("idle snap = %+v, want zero granted/queries", snap)
	}
}

func TestAutoDesiredResolvesToBudget(t *testing.T) {
	s := New(Config{Budget: 3})
	g := s.Acquire(0, Interactive)
	if g.Degree() != 3 {
		t.Fatalf("auto grant degree %d, want 3 (budget)", g.Degree())
	}
	if d := s.Snap().Downgrades; d != 0 {
		t.Fatalf("downgrades = %d, want 0: the budget is all an auto request asks for", d)
	}
	g.Release()
}

// TestDesiredCappedAtBudgetPlusOne: a request past what the pool holds is
// granted the whole pool, degree budget+1, and counted as a downgrade.
func TestDesiredCappedAtBudgetPlusOne(t *testing.T) {
	s := New(Config{Budget: 2})
	g := s.Acquire(100, Interactive)
	if g.Degree() != 3 {
		t.Fatalf("degree = %d, want budget+1 = 3", g.Degree())
	}
	if snap := s.Snap(); snap.Downgrades != 1 || snap.Free != 0 {
		t.Fatalf("snap = %+v, want one downgrade and the pool empty", snap)
	}
	g.Release()
}

// TestBatchLeavesLastSlotForInteractive: however many batch operators
// hold workers, a batch acquire leaves the last free slot, so an
// interactive operator arriving next is granted degree 2 — at budget 1
// too, where batch never gets a worker at all.
func TestBatchLeavesLastSlotForInteractive(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		s := New(Config{Budget: budget})
		b1 := s.Acquire(budget+1, Batch)
		b2 := s.Acquire(budget+1, Batch)
		if b1.Degree() != budget || b2.Degree() != 1 {
			t.Fatalf("budget %d: batch degrees %d, %d; want %d, 1", budget, b1.Degree(), b2.Degree(), budget)
		}
		if free := s.Snap().Free; free != 1 {
			t.Fatalf("budget %d: %d slots free under batch, want the last one", budget, free)
		}
		in := s.Acquire(budget+1, Interactive)
		if in.Degree() != 2 {
			t.Fatalf("budget %d: interactive degree %d behind batch, want 2", budget, in.Degree())
		}
		snap := s.Snap()
		checkInvariants(t, snap)
		if snap.Free != 0 || snap.Queries != 3 {
			t.Fatalf("budget %d: snap = %+v, want three grants and the pool empty", budget, snap)
		}
		for _, g := range []*Grant{b1, b2, in} {
			g.Release()
		}
		if snap := s.Snap(); snap.Free != budget || snap.Queries != 0 {
			t.Fatalf("budget %d: not idle after release: %+v", budget, snap)
		}
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	s := New(Config{Budget: 2})
	g := s.Acquire(3, Interactive)
	g.Release()
	g.Release() // double release must not mint slots
	g.Release()
	snap := s.Snap()
	checkInvariants(t, snap)
	if snap.Free != 2 {
		t.Fatalf("free = %d after double release, want 2", snap.Free)
	}
	if g.Degree() != 1 {
		t.Fatalf("released grant degree = %d, want serial 1", g.Degree())
	}
}

func TestNilGrantIsSerial(t *testing.T) {
	var g *Grant
	if g.Degree() != 1 {
		t.Fatal("nil grant must behave as serial degree 1")
	}
	g.Release() // must not panic
}

func promText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

func TestMetricsGaugesBalance(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Budget: 3, Metrics: reg})
	g1 := s.Acquire(3, Interactive)
	g2 := s.Acquire(3, Batch) // leaves the last slot: degree 1, a downgrade
	text := promText(t, reg)
	for _, want := range []string{
		"nimble_sched_budget 3",
		"nimble_sched_granted 2",
		"nimble_sched_downgrades_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	g1.Release()
	g2.Release()
	if text = promText(t, reg); !strings.Contains(text, "nimble_sched_granted 0") {
		t.Fatalf("idle exposition missing nimble_sched_granted 0:\n%s", text)
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": Interactive, "interactive": Interactive, "batch": Batch} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Fatal("ParseClass(bulk) should fail")
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("Class.String mismatch")
	}
}

// TestGrantReleaseProperty drives seeded random acquire / release
// sequences and asserts the accounting invariants after every step: no
// double-release effects, no leaked slots, the whole pool grantable once
// everything is released.
func TestGrantReleaseProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := 1 + rng.Intn(8)
		s := New(Config{Budget: budget})
		var live []*Grant
		for step := 0; step < 400; step++ {
			if op := rng.Intn(10); op < 5 || len(live) == 0 { // acquire
				class := Interactive
				if rng.Intn(2) == 0 {
					class = Batch
				}
				live = append(live, s.Acquire(rng.Intn(budget+3), class))
			} else { // release (sometimes double)
				i := rng.Intn(len(live))
				live[i].Release()
				if rng.Intn(3) == 0 {
					live[i].Release()
				}
				live = append(live[:i], live[i+1:]...)
			}
			checkInvariants(t, s.Snap())
		}
		for _, g := range live {
			g.Release()
		}
		snap := s.Snap()
		checkInvariants(t, snap)
		if snap.Granted != 0 || snap.Queries != 0 {
			t.Fatalf("seed %d: idle snap = %+v, want zeros", seed, snap)
		}
		// With the pool fully free, a maximal request is granted in full.
		g := s.Acquire(budget+1, Interactive)
		if g.Degree() != budget+1 {
			t.Fatalf("seed %d: post-drain full acquire degree = %d, want %d", seed, g.Degree(), budget+1)
		}
		g.Release()
	}
}

// TestReleaseOnPanicPath mirrors the engine's contract: Release is
// deferred, so a panic mid-query still returns the slots.
func TestReleaseOnPanicPath(t *testing.T) {
	s := New(Config{Budget: 2})
	func() {
		defer func() { recover() }()
		g := s.Acquire(3, Interactive)
		defer g.Release()
		panic("query exploded")
	}()
	snap := s.Snap()
	checkInvariants(t, snap)
	if snap.Granted != 0 || snap.Queries != 0 {
		t.Fatalf("slots leaked across panic: %+v", snap)
	}
}

// TestConcurrentStorm hammers the scheduler from many goroutines under
// -race while a sampler thread asserts the budget invariant at every
// observed instant.
func TestConcurrentStorm(t *testing.T) {
	s := New(Config{Budget: 4})
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Snap()
			if snap.Granted > snap.Budget || snap.Granted+snap.Free != snap.Budget {
				panic("budget invariant violated under storm")
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				class := Interactive
				if w%2 == 0 {
					class = Batch
				}
				g := s.Acquire(rng.Intn(6), class)
				g.Degree()
				g.Release()
				if rng.Intn(4) == 0 {
					g.Release() // racing double release must stay a no-op
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()

	snap := s.Snap()
	checkInvariants(t, snap)
	if snap.Granted != 0 || snap.Queries != 0 {
		t.Fatalf("storm left residue: %+v", snap)
	}
}

func TestDefaultSchedulerSingleton(t *testing.T) {
	a, b := Default(), Default()
	if a == nil || a != b {
		t.Fatal("Default must return one shared scheduler")
	}
	if a.Budget() < 1 {
		t.Fatalf("default budget = %d, want >= 1", a.Budget())
	}
}
