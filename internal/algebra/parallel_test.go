package algebra

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/xmldm"
)

// schedCtx is a context whose operators past their gate are granted the
// degree they want, up to 9 (a budget of 8 extra workers).
func schedCtx() *Context { return &Context{Sched: sched.New(sched.Config{Budget: 8})} }

// randTuples builds n deterministic tuples with a join key k (small
// domain, so joins and partitions collide) and a payload p.
func randTuples(n int, seed int64) []Binding {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Binding, n)
	for i := range out {
		out[i] = xmldm.NewTuple().
			With("k", xmldm.String(fmt.Sprintf("key%d", rng.Intn(7)))).
			With("p", xmldm.Int(int64(i)))
	}
	return out
}

func drainAll(t *testing.T, ctx *Context, op Operator) []Binding {
	t.Helper()
	out, err := Drain(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bindingsEqual(a, b []Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// TestHashJoinWorkerStats: per-worker probe rows must sum to the output
// and the context counters must record spawn and busy time.
func TestHashJoinWorkerStats(t *testing.T) {
	lowerGates(t, 0)
	tuples := randTuples(100, 2)
	ctx := schedCtx()
	var deltas []int
	ctx.OnWorkers = func(d int) { deltas = append(deltas, d) }
	j := &HashJoin{
		Left:    &TupleScan{Tuples: tuples},
		Right:   &TupleScan{Tuples: tuples[:20]},
		On:      []string{"k"},
		Workers: 4,
	}
	got := drainAll(t, ctx, j)
	var sum int64
	for _, ws := range j.WorkerStats() {
		sum += ws.Rows
	}
	if len(got) == 0 || sum != int64(len(got)) {
		t.Errorf("worker rows sum = %d, want the %d output rows", sum, len(got))
	}
	snap := ctx.Snapshot()
	if snap.WorkersSpawned != 4 {
		t.Errorf("WorkersSpawned = %d, want 4", snap.WorkersSpawned)
	}
	if !reflect.DeepEqual(deltas, []int{4, -4}) {
		t.Errorf("OnWorkers deltas = %v, want [4 -4]", deltas)
	}
}

// errAfterScan yields tuples then fails, exercising the producer error
// path (error must surface after all earlier tuples, like serial).
type errAfterScan struct {
	tuples []Binding
	err    error
	pos    int
	open   bool
}

func (s *errAfterScan) Open(*Context) error { s.open = true; s.pos = 0; return nil }
func (s *errAfterScan) Next() (Binding, error) {
	if !s.open {
		return nil, ErrNotOpen
	}
	if s.pos >= len(s.tuples) {
		return nil, s.err
	}
	b := s.tuples[s.pos]
	s.pos++
	return b, nil
}
func (s *errAfterScan) Close() error { s.open = false; return nil }

// errEnough stops a Pull once firstRows has what it asked for.
var errEnough = errors.New("enough rows")

// firstRows takes op's first n rows and closes it, as a consumer that
// stops early does.
func firstRows(t *testing.T, ctx *Context, op Operator, n int) []Binding {
	t.Helper()
	var out []Binding
	_, err := Pull(ctx, op, func(b Binding) error {
		out = append(out, b)
		if len(out) == n {
			return errEnough
		}
		return nil
	})
	if err != nil && err != errEnough {
		t.Fatal(err)
	}
	return out
}

// TestHashJoinEarlyClose: a consumer that takes three rows closes a
// parallel join long before the left stream is drained; the pool must
// tear down without deadlock, leave no goroutine behind and the worker
// gauge at zero, and the rows that did come out are the serial join's
// first rows.
func TestHashJoinEarlyClose(t *testing.T) {
	lowerGates(t, 0)
	left := randTuples(5000, 5)
	right := randTuples(30, 6)
	want := firstRows(t, &Context{}, &HashJoin{
		Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}, On: []string{"k"}}, 3)
	for _, workers := range []int{2, 8} {
		before := runtime.NumGoroutine()
		var gauge int
		ctx := schedCtx()
		ctx.OnWorkers = func(d int) { gauge += d }
		j := &HashJoin{
			Left:    &TupleScan{Tuples: left},
			Right:   &TupleScan{Tuples: right},
			On:      []string{"k"},
			Workers: workers,
		}
		got := firstRows(t, ctx, j, 3)
		if !bindingsEqual(got, want) {
			t.Errorf("workers=%d: got %v, want the serial join's first rows %v", workers, got, want)
		}
		if gauge != 0 {
			t.Errorf("workers=%d: worker gauge = %d after early close, want 0", workers, gauge)
		}
		// Close waited for the producer and every worker to finish; give
		// the runtime a moment to retire them before counting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before, %d after early close", workers, before, after)
		}
	}
}

// TestHashJoinDegreesMatchSerial: the slab-probing join is byte-identical
// to the serial loop for explicit and inferred join variables, over a
// left side of several slabs and a partial last one.
func TestHashJoinDegreesMatchSerial(t *testing.T) {
	lowerGates(t, 0)
	left := randTuples(3*slabRows+17, 6)
	right := make([]Binding, 0, 40)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		right = append(right, xmldm.NewTuple().
			With("k", xmldm.String(fmt.Sprintf("key%d", rng.Intn(7)))).
			With("r", xmldm.Int(int64(i))))
	}
	for _, on := range [][]string{nil, {"k"}} {
		want := drainAll(t, &Context{}, &HashJoin{
			Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}, On: on})
		for _, workers := range []int{1, 2, 8} {
			got := drainAll(t, schedCtx(), &HashJoin{
				Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right},
				On: on, Workers: workers})
			if !bindingsEqual(got, want) {
				t.Errorf("on=%v workers=%d: %d rows vs serial %d (or order differs)",
					on, workers, len(got), len(want))
			}
		}
	}
}

func TestHashJoinDegreesEmptySides(t *testing.T) {
	lowerGates(t, 0)
	tuples := randTuples(10, 8)
	for _, tc := range []struct {
		name        string
		left, right []Binding
	}{
		{"empty left", nil, tuples},
		{"empty right", tuples, nil},
		{"both empty", nil, nil},
	} {
		for _, workers := range []int{1, 4} {
			j := &HashJoin{
				Left:    &TupleScan{Tuples: tc.left},
				Right:   &TupleScan{Tuples: tc.right},
				On:      []string{"k"},
				Workers: workers,
			}
			out := drainAll(t, schedCtx(), j)
			if len(out) != 0 {
				t.Errorf("%s workers=%d: rows = %d, want 0", tc.name, workers, len(out))
			}
		}
	}
}

// TestParallelCloseIdempotent: closing a parallel join twice (a
// defensive caller, or an error path that already tore the tree down)
// must not panic, must not stop the pool twice, and must credit the
// worker gauge and the scheduler once — the cancel-path invariant the
// storm tests assert end to end.
func TestParallelCloseIdempotent(t *testing.T) {
	lowerGates(t, 0)
	tuples := randTuples(50, 11)

	var deltas []int
	ctx := schedCtx()
	ctx.OnWorkers = func(d int) { deltas = append(deltas, d) }

	j := &HashJoin{
		Left:    &TupleScan{Tuples: tuples},
		Right:   &TupleScan{Tuples: tuples},
		On:      []string{"k"},
		Workers: 3,
	}
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Next(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // second close: no panic, no double credit
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deltas, []int{3, -3}) {
		t.Fatalf("OnWorkers deltas = %v after double join close, want [3 -3]", deltas)
	}
	if len(j.WorkerStats()) != 3 {
		t.Fatalf("WorkerStats lost after close: %v", j.WorkerStats())
	}
	if snap := ctx.Sched.Snap(); snap.Granted != 0 || snap.Queries != 0 {
		t.Fatalf("scheduler after double close: %+v, want every slot back", snap)
	}
}

// TestHashJoinGrantLivesWithThePool: the join takes its grant at the
// first Next, once the table is built, and holds it until Close. Granted
// less than it wants, it probes on what it got; granted one worker, it
// gives it back at once and runs serially. Another operator's grant (the
// hog) is what makes the pool short.
func TestHashJoinGrantLivesWithThePool(t *testing.T) {
	lowerGates(t, 0)
	tuples := randTuples(40, 13)
	want := drainAll(t, &Context{}, &HashJoin{Left: &TupleScan{Tuples: tuples}, Right: &TupleScan{Tuples: tuples}, On: []string{"k"}})
	for _, tc := range []struct {
		budget, hog, workers, granted, spawned int
		detail                                 string
	}{
		{8, 1, 4, 4, 4, "workers=4 on $k"},
		{2, 1, 4, 3, 3, "workers=3 want=4 on $k"},
		{2, 3, 2, 1, 0, "workers=1 want=2 on $k"},
	} {
		ctx := &Context{Sched: sched.New(sched.Config{Budget: tc.budget})}
		hog := ctx.Sched.Acquire(tc.hog, sched.Interactive)
		op, node := Instrument(&HashJoin{Left: &TupleScan{Tuples: tuples}, Right: &TupleScan{Tuples: tuples}, On: []string{"k"}, Workers: tc.workers})
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if snap := ctx.Sched.Snap(); snap.Queries != 1 {
			t.Fatalf("budget %d: %d grants live after Open, want only the hog's", tc.budget, snap.Queries)
		}
		var got []Binding
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if len(got) == 0 {
				out := tc.hog - 1 + tc.granted - 1
				if snap := ctx.Sched.Snap(); snap.Granted != out || (snap.Queries == 2) != (tc.spawned > 0) {
					t.Fatalf("budget %d: while probing %+v, want %d slots out and the join's grant held iff it fanned out", tc.budget, snap, out)
				}
			}
			got = append(got, b)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		node.Finalize()
		hog.Release()
		if !bindingsEqual(got, want) {
			t.Fatalf("budget %d: %d rows, the serial join %d (or order differs)", tc.budget, len(got), len(want))
		}
		if snap := ctx.Sched.Snap(); snap.Granted != 0 || snap.Queries != 0 {
			t.Fatalf("budget %d: scheduler after Close: %+v", tc.budget, snap)
		}
		if spawned := ctx.Snapshot().WorkersSpawned; node.Detail != tc.detail || spawned != int64(tc.spawned) {
			t.Errorf("budget %d: detail %q, %d workers spawned; want %q and %d", tc.budget, node.Detail, spawned, tc.detail, tc.spawned)
		}
	}
}

// TestStableSortIndicesMatchesSliceStable: the parallel permutation sort
// equals sort.SliceStable for data with heavy key duplication.
func TestStableSortIndicesMatchesSliceStable(t *testing.T) {
	lowerGates(t, 0)
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 5, 64, 500} {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(9)
		}
		type pair struct{ key, orig int }
		want := make([]pair, n)
		for i := range want {
			want[i] = pair{keys[i], i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
		for _, workers := range []int{1, 3, 8} {
			perm := StableSortIndices(n, workers, func(i, j int) int { return keys[i] - keys[j] })
			if len(perm) != n {
				t.Fatalf("n=%d workers=%d: perm len %d", n, workers, len(perm))
			}
			for i, p := range perm {
				if p != want[i].orig {
					t.Fatalf("n=%d workers=%d: perm[%d]=%d, want %d (stability broken)",
						n, workers, i, p, want[i].orig)
				}
			}
		}
	}
}

// FuzzPartition: the join key hash must give equal keys the same hash
// and depend on the key variables only — the invariant HashJoin's
// buckets rest on.
func FuzzPartition(f *testing.F) {
	f.Add("", "", 2)
	f.Add("héllo wörld 💾", "héllo wörld 💾", 4)
	// "costarring"/"liquid" collide under 32-bit FNV-1a; hostile input
	// for the 64-bit path too.
	f.Add("costarring", "liquid", 8)
	f.Add("a", "b", 1)
	f.Add("key0", "key0", 3)
	f.Fuzz(func(t *testing.T, k1, k2 string, n int) {
		vars := []string{"k"}
		if n%2 == 0 {
			vars = append(vars, "y") // a variable neither tuple binds
		}
		b1 := xmldm.NewTuple().With("k", xmldm.String(k1)).With("x", xmldm.Int(int64(n)))
		b2 := xmldm.NewTuple().With("k", xmldm.String(k2)).With("x", xmldm.Int(2))
		h1, h2 := PartitionKey(b1, vars), PartitionKey(b2, vars)
		if k1 == k2 && h1 != h2 {
			t.Fatalf("equal keys %q hash apart: %x and %x", k1, h1, h2)
		}
		// The non-key payload must not influence the hash: a tuple's
		// key hash is a function of the key variables only.
		b1b := xmldm.NewTuple().With("x", xmldm.Int(99)).With("k", xmldm.String(k1))
		if h := PartitionKey(b1b, vars); h != h1 {
			t.Fatalf("payload changed the key hash: %x vs %x", h, h1)
		}
	})
}

// TestHashJoinGateBoundary: wanting degree 2, a join whose build side is
// one row short of joinParallelMin asks the scheduler for nothing, starts
// no worker and EXPLAIN shows the gate that held and no degree; at
// joinParallelMin it is granted two workers, starts them and shows
// workers=2 and no gate. Both emit the serial join's rows.
func TestHashJoinGateBoundary(t *testing.T) {
	if joinGate != joinParallelMin {
		t.Fatalf("joinGate = %d, want the committed %d", joinGate, joinParallelMin)
	}
	// Each left row matches at most one right row; three slabs of them.
	rng := rand.New(rand.NewSource(12))
	left := make([]Binding, 2*slabRows+5)
	for i := range left {
		left[i] = xmldm.NewTuple().With("k", xmldm.String(fmt.Sprintf("k%d", rng.Intn(2*joinParallelMin)))).With("l", xmldm.Int(int64(i)))
	}
	for _, n := range []int{joinParallelMin - 1, joinParallelMin} {
		right := make([]Binding, n)
		for i := range right {
			right[i] = xmldm.NewTuple().With("k", xmldm.String(fmt.Sprintf("k%d", i))).With("r", xmldm.Int(int64(i)))
		}
		join := func(workers int) *HashJoin {
			return &HashJoin{Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}, On: []string{"k"}, Workers: workers}
		}
		want := drainAll(t, &Context{}, join(1))
		ctx := schedCtx()
		var deltas []int
		ctx.OnWorkers = func(d int) { deltas = append(deltas, d) }
		op, node := Instrument(join(2))
		if got := drainAll(t, ctx, op); len(want) < slabRows || !bindingsEqual(got, want) {
			t.Fatalf("n=%d: %d rows, the serial join %d (or order differs)", n, len(got), len(want))
		}
		node.Finalize()
		spawned := ctx.Snapshot().WorkersSpawned
		if n < joinParallelMin {
			if len(deltas) != 0 || spawned != 0 || len(node.Workers) != 0 || ctx.Sched.Snap().Downgrades != 0 {
				t.Errorf("n=%d: workers started under the gate: deltas %v, spawned %d, stats %v", n, deltas, spawned, node.Workers)
			}
			if held := fmt.Sprintf("serial n=%d<%d on $k", n, joinParallelMin); node.Detail != held {
				t.Errorf("n=%d: detail %q, want %q", n, node.Detail, held)
			}
			continue
		}
		if !reflect.DeepEqual(deltas, []int{2, -2}) || spawned != 2 || len(node.Workers) != 2 {
			t.Errorf("n=%d: at the gate deltas %v, spawned %d, stats %v; want two workers", n, deltas, spawned, node.Workers)
		}
		if node.Detail != "workers=2 on $k" {
			t.Errorf("n=%d: detail %q, want workers=2 and no held gate", n, node.Detail)
		}
	}
}

// TestStableSortGateBoundary: a sort one item short of sortParallelMin
// asks the scheduler for nothing, at it for its degree; on either side,
// and at every degree, the permutation is sort.SliceStable's.
func TestStableSortGateBoundary(t *testing.T) {
	if sortGate != sortParallelMin {
		t.Fatalf("sortGate = %d, want the committed %d", sortGate, sortParallelMin)
	}
	ctx := schedCtx()
	if g := ctx.acquire(2, sortParallelMin-1, sortGate); g != nil {
		t.Fatalf("a sort under its gate %d acquired degree %d", sortParallelMin, g.Degree())
	}
	g := ctx.acquire(2, sortParallelMin, sortGate)
	if g.Degree() != 2 {
		t.Fatalf("a sort at its gate %d was granted degree %d, want 2", sortParallelMin, g.Degree())
	}
	g.Release()
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{sortParallelMin - 1, sortParallelMin, sortParallelMin + 1} {
		keys := make([]xmldm.Value, n)
		for i := range keys {
			keys[i] = xmldm.String(fmt.Sprint(rng.Intn(n / 4)))
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return xmldm.Compare(keys[want[a]], keys[want[b]]) < 0 })
		for _, workers := range []int{1, 2, 8} {
			if got := ctx.SortIndices(n, workers, func(i, j int) int { return xmldm.Compare(keys[i], keys[j]) }); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: permutation differs from sort.SliceStable", n, workers)
			}
		}
	}
	if snap := ctx.Sched.Snap(); snap.Queries != 0 || snap.Downgrades != 0 {
		t.Fatalf("scheduler after the sorts: %+v, want every grant back in full", snap)
	}
}
