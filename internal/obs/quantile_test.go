package obs

import (
	"sync"
	"testing"
)

// Quantile edge cases: the estimator must degrade predictably at the
// boundaries — no observations, one observation, and a distribution
// that lands entirely beyond the largest finite bound.

func TestQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	if got := h.Count(); got != 0 {
		t.Errorf("empty histogram Count() = %d", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("empty histogram Sum() = %v", got)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1.5)
	// One sample in (1, 2]: the median interpolates to the middle of
	// that bucket.
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("Quantile(0.5) = %v, want 1.5", got)
	}
	// A high quantile stays inside the sample's bucket.
	if got := h.Quantile(0.99); got <= 1 || got > 2 {
		t.Errorf("Quantile(0.99) = %v, want within (1, 2]", got)
	}
}

func TestQuantileSingleSampleFirstBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	// The first bucket interpolates from zero.
	if got := h.Quantile(0.5); got < 0 || got > 1 {
		t.Errorf("Quantile(0.5) = %v, want within [0, 1]", got)
	}
}

func TestQuantileAllOverflow(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	for _, v := range []float64{5, 6, 7} {
		h.Observe(v)
	}
	// Every observation sits in the +Inf bucket: all quantiles clamp to
	// the largest finite bound rather than inventing a value.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Quantile(q); got != 0.01 {
			t.Errorf("all-overflow Quantile(%v) = %v, want clamp to 0.01", q, got)
		}
	}
	if got := h.Count(); got != 3 {
		t.Errorf("Count() = %d, want 3", got)
	}
}

func TestQuantileNilHistogram(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile(0.5) = %v, want 0", got)
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram Count/Sum not zero")
	}
}

// TestNilSpanConcurrent hammers every nil-receiver span and tracer
// method from many goroutines; under -race (part of make check) this
// proves the no-op paths are genuinely state-free.
func TestNilSpanConcurrent(t *testing.T) {
	var w SpanRef
	var sp *Span
	var tr *TraceStore
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				child := w.StartChild("c")
				if !child.IsZero() {
					t.Error("no-op span StartChild returned a live span")
					return
				}
				w.SetAttr("k", "v")
				w.SetInt("n", 1)
				w.SetBool("b", true)
				w.AddEvent("e", "k", "v")
				w.Finish()
				_ = w.Tree()
				_ = sp.Name()
				_ = sp.Duration()
				_ = sp.Attrs()
				_, _ = sp.Attr("k")
				_ = sp.Children()
				sp.Walk(func(*Span) {})
				_ = sp.FindAll("c")
				tr.Record(NewSpan("x"))
				_ = tr.Last(1)
				_ = tr.Len()
			}
		}()
	}
	wg.Wait()
}
