package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// BenchmarkTracedQuery runs one point query of the point-pushdown shape
// through an engine that keeps every trace (sample rate 1, a 16-entry
// ring, as the repository benchmark configures it): parse-free prepared
// call, pushed fragment, fetch, evaluation, construction and the span
// tree of all of it, recorded into the store.
func BenchmarkTracedQuery(b *testing.B) {
	traces := obs.NewTraceStore(obs.StoreConfig{Limit: 16, SampleRate: 1, Seed: 7})
	e, _ := newTestEngineOver(b, testTickets, Config{Metrics: obs.NewRegistry(), Traces: traces})
	texts := benchTexts()
	for _, q := range texts {
		answer(b, e, q)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(ctx, texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
