package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// writeQuery writes a twelve-span trace of a query's shape into a root
// from st, with typed attributes and an event, and records it.
func writeQuery(st *TraceStore, q int) SpanRef {
	root := st.NewRoot("request", TraceContext{})
	root.SetAttr("method", "POST")
	cl := root.StartChild("cluster")
	cl.SetBool("cache_hit", false)
	adm := cl.StartChild("admission")
	adm.SetAttr("outcome", "immediate")
	adm.Finish()
	eng := cl.StartChild("engine")
	eng.SetInt("results", int64(q))
	un := eng.StartChild("unfold")
	un.SetBool("prepared", true)
	un.Finish()
	rw := eng.StartChildAt("rewrite", 0)
	for _, phase := range []string{"plan", "prefetch"} {
		sp := rw.StartChild(phase)
		sp.SetInt("fetches", 1)
		sp.Finish()
	}
	ev := rw.StartChildFor("eval ", "FuncScan")
	ev.SetInt("bindings", int64(q))
	ev.Finish()
	rw.Finish()
	f := eng.StartChildFor("fetch ", "crmdb")
	f.SetAttr("source", "crmdb")
	at := f.StartChildAt("attempt", 1)
	at.Finish()
	f.AddEvent("retry backoff", "attempt", "1")
	f.Finish()
	eng.Finish()
	cl.Finish()
	root.Finish()
	st.Record(root)
	return root
}

func TestArenaNamesAndAttrsRenderOnRead(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 4, Seed: 3})
	writeQuery(st, 7)
	tree := st.Last(1)[0]
	var names []string
	tree.Walk(func(sp *Span) { names = append(names, sp.Name()) })
	want := "[request cluster admission engine unfold rewrite[0] plan prefetch eval FuncScan fetch crmdb attempt[1]]"
	if got := fmt.Sprint(names); got != want {
		t.Errorf("names %s, want %s", got, want)
	}
	eng := tree.FindAll("engine")[0]
	if v, _ := eng.Attr("results"); v != "7" {
		t.Errorf("results = %q", v)
	}
	if v, _ := tree.FindAll("cluster")[0].Attr("cache_hit"); v != "false" {
		t.Errorf("cache_hit = %q", v)
	}
	if got := st.Search(Query{Source: "crmdb"}); len(got) != 1 {
		t.Errorf("source filter on a split name found %d", len(got))
	}
	if evs := tree.FindAll("fetch crmdb")[0].Events(); len(evs) != 1 || evs[0].Attrs[0] != (Attr{"attempt", "1"}) {
		t.Errorf("events = %+v", evs)
	}
}

// TestStaleHandlesWriteNothing: a handle kept past its arena's eviction
// and reuse writes nothing into the trace that now holds the arena, while
// other traces are written and recorded beside it (run under -race), and
// a kept trace read before 2×Limit later queries is intact after them.
func TestStaleHandlesWriteNothing(t *testing.T) {
	const limit = 4
	st := NewTraceStore(StoreConfig{Limit: limit, Seed: 9})
	first := writeQuery(st, 1)
	kept := st.Find(first.TraceID())
	before, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	stale := first.StartChild("after record") // recorded, still its generation
	stale.Finish()
	lateWrites := func() {
		for _, h := range []SpanRef{first, stale} {
			h.SetAttr("error", "late write")
			h.SetInt("late", 1)
			h.AddEvent("late")
			c := h.StartChildFor("fetch ", "late")
			c.Finish()
			h.Finish()
		}
	}

	// Evict and reuse the first arena, writing through the stale handles
	// all the while.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lateWrites()
			}
		}()
	}
	for q := 2; q <= 1+2*limit; q++ {
		writeQuery(st, q)
	}
	close(done)
	wg.Wait()
	lateWrites() // the first arena now holds one of the kept traces

	if !first.TraceID().IsZero() || first.Tree() != nil || !stale.SpanID().IsZero() {
		t.Error("a recycled handle still reads its old trace")
	}
	if got := st.Search(Query{ErrOnly: true}); len(got) != 0 {
		t.Errorf("a stale write made %d kept traces errored", len(got))
	}
	if got := st.Search(Query{Source: "late"}); len(got) != 0 {
		t.Errorf("a stale write added spans to %d kept traces", len(got))
	}
	for _, tr := range st.Last(0) {
		tr.Walk(func(sp *Span) {
			if _, ok := sp.Attr("late"); ok || len(sp.Events()) > 0 && sp.Name() != "fetch crmdb" {
				t.Errorf("trace %s holds a stale write at %s", tr.TraceID(), sp.Name())
			}
		})
	}
	after, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("a kept copy changed after its arena was reused:\n%s\n%s", before, after)
	}
	if st.Len() != limit {
		t.Errorf("kept %d, want %d", st.Len(), limit)
	}
}

// TestRecycledArenaAllocatesNothing: once the store's arenas have grown
// to a query's size, writing and recording a twelve-span trace with typed
// attributes and an event allocates nothing.
func TestRecycledArenaAllocatesNothing(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 4, Seed: 5})
	for q := 0; q < 16; q++ {
		writeQuery(st, q)
	}
	if got := testing.AllocsPerRun(200, func() { writeQuery(st, 3) }); got != 0 {
		t.Errorf("writing a trace into a recycled arena: %v allocations, want 0", got)
	}
	dropping := NewTraceStore(StoreConfig{Limit: 4, SampleRate: -1, Seed: 5})
	for q := 0; q < 4; q++ {
		writeQuery(dropping, q)
	}
	if got := testing.AllocsPerRun(200, func() { writeQuery(dropping, 3) }); got != 0 {
		t.Errorf("writing a dropped trace: %v allocations, want 0", got)
	}
}

// TestRecordTwiceKeepsOnce: a trace recorded twice enters the ring once,
// so its arena cannot reach the free list twice.
func TestRecordTwiceKeepsOnce(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 4, Seed: 2})
	root := writeQuery(st, 1)
	st.Record(root)
	if st.Len() != 1 {
		t.Fatalf("kept %d", st.Len())
	}
	for q := 0; q < 8; q++ {
		writeQuery(st, q)
	}
	seen := map[*arena]bool{}
	st.mu.Lock()
	for _, a := range st.free {
		if seen[a] {
			t.Error("an arena is on the free list twice")
		}
		seen[a] = true
	}
	st.mu.Unlock()
}
