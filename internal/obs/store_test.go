package obs

import (
	"strings"
	"testing"
	"time"
)

// finished builds a completed root span on a store.
func finished(t *TraceStore, name string, mutate func(SpanRef)) SpanRef {
	sp := t.NewRoot(name, TraceContext{})
	if mutate != nil {
		mutate(sp)
	}
	sp.Finish()
	return sp
}

func TestTailKeepsBeatHeadSampling(t *testing.T) {
	reg := NewRegistry()
	// rate < 0 means tail-only: nothing survives the head decision.
	st := NewTraceStore(StoreConfig{Limit: 8, SampleRate: -1, Seed: 1, Metrics: reg})

	st.Record(finished(st, "clean", nil))
	if st.Len() != 0 {
		t.Fatal("tail-only store kept a clean trace")
	}
	if st.Dropped() != 1 {
		t.Errorf("dropped = %d", st.Dropped())
	}

	// An error anywhere in the tree keeps the trace.
	st.Record(finished(st, "failing", func(sp SpanRef) {
		c := sp.StartChild("fetch crmdb")
		c.SetAttr("error", "boom")
		c.Finish()
	}))
	if st.Len() != 1 {
		t.Fatal("errored trace not tail-kept")
	}
	_, errKept, _ := st.Kept()
	if errKept != 1 {
		t.Errorf("kept by error = %d", errKept)
	}
	if v := reg.Counter("nimble_traces_kept_total", "reason", "error").Value(); v != 1 {
		t.Errorf("kept counter = %d", v)
	}
}

func TestSlowThresholdKeep(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 8, SampleRate: -1, SlowThreshold: time.Nanosecond, Seed: 1})
	sp := st.NewRoot("slow", TraceContext{})
	time.Sleep(time.Millisecond)
	sp.Finish()
	st.Record(sp)
	if st.Len() != 1 {
		t.Fatal("slow trace not tail-kept")
	}
	_, _, slowKept := st.Kept()
	if slowKept != 1 {
		t.Errorf("kept by slow = %d", slowKept)
	}
}

func TestHeadSamplingDeterministicUnderSeed(t *testing.T) {
	keptIDs := func() []string {
		st := NewTraceStore(StoreConfig{Limit: 100, SampleRate: 0.5, Seed: 99})
		var ids []string
		for i := 0; i < 64; i++ {
			sp := finished(st, "q", nil)
			st.Record(sp)
			if st.Find(sp.TraceID()) != nil {
				ids = append(ids, sp.TraceID().String())
			}
		}
		return ids
	}
	a, b := keptIDs(), keptIDs()
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("rate 0.5 kept %d of 64 — sampler not discriminating", len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("same seed should keep the same trace set")
	}
}

func TestSearchFilters(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 16, Seed: 1})
	st.Record(finished(st, "fast", nil))
	st.Record(finished(st, "errored", func(sp SpanRef) { sp.SetAttr("error", "x") }))
	slow := st.NewRoot("slow", TraceContext{})
	c := slow.StartChild("fetch crmdb")
	c.Finish()
	time.Sleep(2 * time.Millisecond)
	slow.Finish()
	st.Record(slow)

	if got := st.Search(Query{}); len(got) != 3 || got[0].Name() != "slow" {
		t.Fatalf("unfiltered search = %d, most recent %q", len(got), got[0].Name())
	}
	if got := st.Search(Query{ErrOnly: true}); len(got) != 1 || got[0].Name() != "errored" {
		t.Errorf("err filter = %v", got)
	}
	if got := st.Search(Query{MinDuration: time.Millisecond}); len(got) != 1 || got[0].Name() != "slow" {
		t.Errorf("min duration filter returned %d", len(got))
	}
	if got := st.Search(Query{Source: "crmdb"}); len(got) != 1 || got[0].Name() != "slow" {
		t.Errorf("source filter = %v", got)
	}
	if got := st.Search(Query{Limit: 2}); len(got) != 2 {
		t.Errorf("limit = %d", len(got))
	}
	if st.Find(TraceID{9}) != nil {
		t.Error("Find of unknown id should be nil")
	}
}

func TestStoreStreamsToExporter(t *testing.T) {
	st := NewTraceStore(StoreConfig{Limit: 4, Seed: 1})
	mem := &MemExporter{}
	q := NewBatchQueue(mem, 8, 2, nil)
	st.SetExporter(q)
	for i := 0; i < 3; i++ {
		st.Record(finished(st, "q", nil))
	}
	q.Flush()
	if got := len(mem.Spans()); got != 3 {
		t.Fatalf("exported %d spans", got)
	}
	q.Close()
}

func TestRootSpanJoinsIncomingContext(t *testing.T) {
	g := NewIDGen(5)
	tc := TraceContext{TraceID: g.TraceID(), SpanID: g.SpanID(), Sampled: true}
	sp := NewRootSpan("request", tc)
	if sp.TraceID() != tc.TraceID {
		t.Error("root should adopt the incoming trace id")
	}
	if sp.ParentID() != tc.SpanID {
		t.Error("root should parent under the incoming span id")
	}
	child := sp.StartChild("engine")
	if child.TraceID() != tc.TraceID || child.ParentID() != sp.SpanID() {
		t.Error("child identity should chain from the root")
	}
	// Without an incoming context the root mints a fresh identity.
	fresh := NewRootSpan("request", TraceContext{})
	if fresh.TraceID().IsZero() || !fresh.ParentID().IsZero() {
		t.Error("fresh root identity wrong")
	}
}
