package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/xmldm"
)

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
	ctx := &Context{}
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

// TestHashJoinEarlyClose: a Limit above a parallel join closes it long
// before the left stream is drained; the pool must tear down without
// deadlock, leave no goroutine behind and the worker gauge at zero, and
// the rows that did come out are the serial join's first rows.
func TestHashJoinEarlyClose(t *testing.T) {
	lowerGates(t, 0)
	left := randTuples(5000, 5)
	right := randTuples(30, 6)
	want := drainAll(t, &Context{}, &Limit{N: 3, Input: &HashJoin{
		Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}, On: []string{"k"}}})
	for _, workers := range []int{2, 8} {
		before := runtime.NumGoroutine()
		var gauge int
		ctx := &Context{}
		ctx.OnWorkers = func(d int) { gauge += d }
		j := &HashJoin{
			Left:    &TupleScan{Tuples: left},
			Right:   &TupleScan{Tuples: right},
			On:      []string{"k"},
			Workers: workers,
		}
		got := drainAll(t, ctx, &Limit{Input: j, N: 3})
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
			got := drainAll(t, &Context{}, &HashJoin{
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
			out := drainAll(t, &Context{}, j)
			if len(out) != 0 {
				t.Errorf("%s workers=%d: rows = %d, want 0", tc.name, workers, len(out))
			}
		}
	}
}

// TestParallelCloseIdempotent: closing a parallel join twice (a
// defensive caller, or an error path that already tore the tree down)
// must not panic, must not stop the pool twice, and must credit the
// worker gauge once — the cancel-path invariant the storm tests assert
// end to end.
func TestParallelCloseIdempotent(t *testing.T) {
	lowerGates(t, 0)
	tuples := randTuples(50, 11)

	var deltas []int
	ctx := &Context{}
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

// TestHashJoinGateBoundary: granted degree 2, a join whose build side is
// one row short of joinParallelMin starts no worker and EXPLAIN shows the
// gate that held; at joinParallelMin two workers start and no gate is
// shown. Both emit the serial join's rows.
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
		ctx := &Context{}
		var deltas []int
		ctx.OnWorkers = func(d int) { deltas = append(deltas, d) }
		op, node := Instrument(join(2), nil)
		if got := drainAll(t, ctx, op); len(want) < slabRows || !bindingsEqual(got, want) {
			t.Fatalf("n=%d: %d rows, the serial join %d (or order differs)", n, len(got), len(want))
		}
		spawned := ctx.Snapshot().WorkersSpawned
		if n < joinParallelMin {
			if len(deltas) != 0 || spawned != 0 || len(node.Workers) != 0 {
				t.Errorf("n=%d: workers started under the gate: deltas %v, spawned %d, stats %v", n, deltas, spawned, node.Workers)
			}
			if held := fmt.Sprintf("workers=2 serial n=%d<%d", n, joinParallelMin); !strings.Contains(node.Detail, held) {
				t.Errorf("n=%d: detail %q, want it to show %s", n, node.Detail, held)
			}
			continue
		}
		if !reflect.DeepEqual(deltas, []int{2, -2}) || spawned != 2 || len(node.Workers) != 2 {
			t.Errorf("n=%d: at the gate deltas %v, spawned %d, stats %v; want two workers", n, deltas, spawned, node.Workers)
		}
		if !strings.Contains(node.Detail, "workers=2") || strings.Contains(node.Detail, "serial") {
			t.Errorf("n=%d: detail %q, want workers=2 and no held gate", n, node.Detail)
		}
	}
}

// TestStableSortGateBoundary: on either side of sortParallelMin, and at
// every degree, the permutation is sort.SliceStable's.
func TestStableSortGateBoundary(t *testing.T) {
	if sortGate != sortParallelMin {
		t.Fatalf("sortGate = %d, want the committed %d", sortGate, sortParallelMin)
	}
	if degreeFor(2, sortParallelMin-1, sortGate) != 1 || degreeFor(2, sortParallelMin, sortGate) != 2 {
		t.Fatalf("the sort's degree does not change at its gate %d", sortParallelMin)
	}
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
			if got := StableSortIndices(n, workers, func(i, j int) int { return xmldm.Compare(keys[i], keys[j]) }); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: permutation differs from sort.SliceStable", n, workers)
			}
		}
	}
}
