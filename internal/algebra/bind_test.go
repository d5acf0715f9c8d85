package algebra

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/xmldm"
)

// lifecycle wraps an operator and counts its Opens and Closes; openErr,
// if set, fails the Open.
type lifecycle struct {
	Operator
	opens, closes int
	openErr       error
}

func (l *lifecycle) Open(ctx *Context) error {
	if l.openErr != nil {
		return l.openErr
	}
	l.opens++
	return l.Operator.Open(ctx)
}

func (l *lifecycle) Close() error {
	l.closes++
	return l.Operator.Close()
}

func keyRows(key string, vals ...string) []Binding {
	out := make([]Binding, len(vals))
	for i, v := range vals {
		out[i] = xmldm.NewTuple(xmldm.Field{Name: key, Value: xmldm.String(v)}, xmldm.Field{Name: key + "#", Value: xmldm.Int(int64(i))})
	}
	return out
}

// boundJoin joins left rows keyed $a to right rows keyed $b, bound on $a,
// and returns the join with its two counted inputs and the right leaf.
func boundJoin(t *testing.T, left, right []Binding, maxKeys, workers int) (*HashJoin, *lifecycle, *lifecycle, *keyedScan) {
	leaf := &keyedScan{t: t, all: right, key: "b"}
	l, r := &lifecycle{Operator: &TupleScan{Tuples: left}}, &lifecycle{Operator: leaf}
	j := &HashJoin{Left: l, Right: r, Pairs: []KeyPair{{Left: "a", Right: "b"}}, Workers: workers,
		Bind: &Bind{Key: "a", MaxKeys: maxKeys, Rows: len(right), Ship: leaf.ship}}
	return j, l, r, leaf
}

// TestBindJoinOpensRightAfterLeft: Open opens only the left input; the
// right one opens at the first Next, after the keys, exactly once, and
// both are closed exactly once however often the join is closed.
func TestBindJoinOpensRightAfterLeft(t *testing.T) {
	lowerGates(t, 0)
	for _, workers := range []int{1, 2} {
		j, l, r, leaf := boundJoin(t, keyRows("a", "1", "2", "1", "9"), keyRows("b", "2", "1", "3", "01"), 10, workers)
		ctx := schedCtx()
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if l.opens != 1 || r.opens != 0 || leaf.told {
			t.Fatalf("after Open: left opens=%d right opens=%d told=%v, want 1, 0, false", l.opens, r.opens, leaf.told)
		}
		var got []string
		for {
			b, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			got = append(got, b.String())
		}
		if want := 5; len(got) != want { // 1→{1,01}, 2→{2}, 1→{1,01}
			t.Fatalf("workers=%d: %d rows %v, want %d", workers, len(got), got, want)
		}
		if r.opens != 1 || leaf.keys != 3 || leaf.whole || len(leaf.Tuples) != 3 {
			t.Fatalf("right opens=%d keys=%d whole=%v delivered=%d, want 1, 3, false, 3", r.opens, leaf.keys, leaf.whole, len(leaf.Tuples))
		}
		for i := 0; i < 2; i++ {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if r.closes != 1 {
			t.Errorf("right closed %d times, want once", r.closes)
		}
		if snap := ctx.Snapshot(); snap.BindJoins != 1 || snap.BindFallbacks != 0 {
			t.Errorf("stats %+v, want one bound join", snap)
		}
	}
}

// TestBindJoinFailedLazyOpen: when the right side fails to open — the
// keyed fetch failed — the error surfaces on the first Next, and Close
// closes the left input and leaves the right one, which never opened,
// alone.
func TestBindJoinFailedLazyOpen(t *testing.T) {
	lowerGates(t, 0)
	boom := errors.New("keyed fetch failed")
	for _, workers := range []int{1, 2} {
		j, l, r, _ := boundJoin(t, keyRows("a", "1", "2"), keyRows("b", "1"), 10, workers)
		r.openErr = boom
		if err := j.Open(schedCtx()); err != nil {
			t.Fatal(err)
		}
		if b, err := j.Next(); b != nil || !errors.Is(err, boom) {
			t.Fatalf("Next = %v, %v; want the open error", b, err)
		}
		for i := 0; i < 2; i++ {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if l.opens != 1 || l.closes < 1 || r.opens != 0 || r.closes != 0 {
			t.Errorf("left %d/%d right %d/%d opens/closes; want the right side untouched", l.opens, l.closes, r.opens, r.closes)
		}
	}
}

// TestBindJoinNothingToAskFor: a left side without a single key — empty,
// or all Null and unbound — ships no keys, never opens the right side and
// joins nothing.
func TestBindJoinNothingToAskFor(t *testing.T) {
	noKey := []Binding{
		xmldm.NewTuple(xmldm.Field{Name: "a", Value: xmldm.Null{}}),
		xmldm.NewTuple(xmldm.Field{Name: "z", Value: xmldm.String("1")}),
	}
	for _, left := range [][]Binding{nil, noKey} {
		j, _, r, leaf := boundJoin(t, left, keyRows("b", "1"), 10, 1)
		if got := drainAll(t, &Context{}, j); len(got) != 0 {
			t.Fatalf("joined %v", got)
		}
		if !leaf.told || leaf.whole || leaf.keys != 0 || r.opens != 0 || r.closes != 0 {
			t.Errorf("told=%v whole=%v keys=%d right opens=%d closes=%d; want told nothing, never opened",
				leaf.told, leaf.whole, leaf.keys, r.opens, r.closes)
		}
	}
}

// TestBindJoinPastTheCapStreams: one distinct key past MaxKeys the join
// stops holding the left side back — it has read only up to that row —
// fetches the right side whole, and still emits the unbound join's rows.
func TestBindJoinPastTheCapStreams(t *testing.T) {
	lowerGates(t, 0)
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprint(i%20))
	}
	left, right := keyRows("a", vals...), keyRows("b", vals...)
	want := drainAll(t, &Context{}, &HashJoin{Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right},
		Pairs: []KeyPair{{Left: "a", Right: "b"}}})
	for _, workers := range []int{1, 2, 8} {
		j, _, _, leaf := boundJoin(t, left, right, 4, workers)
		op, node := Instrument(j)
		ctx := schedCtx()
		got := drainAll(t, ctx, op)
		node.Finalize()
		if !bindingsEqual(got, want) {
			t.Fatalf("workers=%d: fallback join emits %d rows, unbound %d", workers, len(got), len(want))
		}
		if !leaf.whole || leaf.keys != 0 {
			t.Errorf("workers=%d: leaf whole=%v keys=%d, want the whole fetch", workers, leaf.whole, leaf.keys)
		}
		// Held: the five rows read when the fifth distinct key turned up;
		// built: all forty right rows.
		if node.PeakBuffered < 45 || node.PeakBuffered > 45+len(want) {
			t.Errorf("workers=%d: peak=%d, want 40 built + 5 held (+ pending output)", workers, node.PeakBuffered)
		}
		if want := "bind=fallback"; node.Detail[len(node.Detail)-len(want):] != want {
			t.Errorf("workers=%d: detail %q, want it to end in %q", workers, node.Detail, want)
		}
		if snap := ctx.Snapshot(); snap.BindJoins != 0 || snap.BindFallbacks != 1 {
			t.Errorf("stats %+v, want one fallback", snap)
		}
	}
}

// TestBindJoinExplainCountsKeysAndHeldRows: the instrumented join's
// detail is settled by the run — keys shipped over rows planned — and
// its peak counts the left rows it held beside the rows it built. A join
// that never ran is described as planned.
func TestBindJoinExplainCountsKeysAndHeldRows(t *testing.T) {
	left, right := keyRows("a", "1", "2", "1", "9"), keyRows("b", "2", "1", "3", "01")
	j, _, _, _ := boundJoin(t, left, right, 10, 1)
	_, unrun := Instrument(j)
	unrun.Finalize()
	if want := "on $a=$b bind=?/4"; unrun.Detail != want {
		t.Errorf("never run: detail %q, want %q", unrun.Detail, want)
	}
	j, _, _, _ = boundJoin(t, left, right, 10, 1)
	op, node := Instrument(j)
	if got := drainAll(t, &Context{}, op); len(got) != 5 {
		t.Fatalf("%d rows", len(got))
	}
	node.Finalize()
	if want := "on $a=$b bind=3/4"; node.Detail != want {
		t.Errorf("detail %q, want %q", node.Detail, want)
	}
	if node.PeakBuffered < 4+3 {
		t.Errorf("peak=%d, want at least 4 held + 3 built", node.PeakBuffered)
	}
}

// TestBindJoinLeftErrorWhileHolding: an error from the left input while
// the join is still collecting keys is the join's error; nothing was
// fetched.
func TestBindJoinLeftErrorWhileHolding(t *testing.T) {
	boom := errors.New("left boom")
	leaf := &keyedScan{t: t, all: keyRows("b", "1"), key: "b"}
	r := &lifecycle{Operator: leaf}
	j := &HashJoin{Left: &errAfterScan{tuples: keyRows("a", "1", "2"), err: boom}, Right: r,
		Pairs: []KeyPair{{Left: "a", Right: "b"}}, Bind: &Bind{Key: "a", MaxKeys: 10, Ship: leaf.ship}}
	if err := j.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	if b, err := j.Next(); b != nil || !errors.Is(err, boom) {
		t.Fatalf("Next = %v, %v; want the left error", b, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if leaf.told || r.opens != 0 || r.closes != 0 {
		t.Errorf("told=%v right opens=%d closes=%d; want nothing asked", leaf.told, r.opens, r.closes)
	}
}
