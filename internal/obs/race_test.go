package obs

// The dedicated race-detector exercise for the observability primitives:
// concurrent metric updates and span mutation racing with exposition and
// serialization. `make check` runs the whole suite under -race; this
// test is the one designed to trip it if any path regresses.

import (
	"encoding/json"
	"io"
	"sync"
	"testing"
)

func TestConcurrentMetricsAndTracing(t *testing.T) {
	r := NewRegistry()
	tr := NewTraceStore(StoreConfig{Limit: 8})
	root := NewSpan("query")

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := []string{"a", "b", "c"}[w%3]
			for i := 0; i < iters; i++ {
				r.Counter("races_total", "source", src).Inc()
				r.Gauge("races_inflight").Add(1)
				r.Histogram("races_seconds", "source", src).Observe(float64(i) / 1e5)
				r.Gauge("races_inflight").Add(-1)

				sp := root.StartChild("fetch " + src)
				sp.SetInt("i", int64(i))
				sp.Finish()

				done := NewSpan("query")
				done.StartChild("eval").Finish()
				done.Finish()
				tr.Record(done)
				tr.Last(4)
			}
		}(w)
	}
	// Readers race with the writers.
	var rg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
				_ = r.Summary()
				tree := root.Tree()
				if _, err := json.Marshal(tree); err != nil {
					t.Error(err)
				}
				tree.Walk(func(s *Span) { s.Duration() })
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	root.Finish()

	var total int64
	for _, src := range []string{"a", "b", "c"} {
		total += r.Counter("races_total", "source", src).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total = %d, want %d", total, workers*iters)
	}
	if n := int64(len(root.Tree().Children())); n != workers*iters {
		t.Errorf("root children = %d, want %d", n, workers*iters)
	}
	if tr.Len() != 8 {
		t.Errorf("trace store retained %d", tr.Len())
	}
}
