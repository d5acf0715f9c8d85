// Corpus for the spanfinish analyzer: flagged leaks and clean idioms.
package spanfinish

import (
	"context"
	"errors"

	"repro/internal/obs"
)

type holder struct{ sp obs.SpanRef }

func sideEffect() {}

// ---- flagged ----

func leakNoFinish(parent obs.SpanRef) {
	sp := parent.StartChild("work") // want "never finished"
	sp.SetAttr("k", "v")
}

func leakEarlyReturn(parent obs.SpanRef, fail bool) error {
	sp := parent.StartChild("work")
	if fail {
		return errors.New("boom") // want "may not be finished on this return path"
	}
	sp.Finish()
	return nil
}

func leakDiscarded(parent obs.SpanRef) {
	parent.StartChild("work") // want "is discarded"
}

func leakBlank(ctx context.Context) {
	_, _ = obs.StartSpan(ctx, "step") // want "is discarded"
}

func leakRoot() {
	root := obs.NewSpan("query") // want "never finished"
	root.SetAttr("k", "v")
}

// ---- clean ----

func cleanDefer(parent obs.SpanRef) {
	sp := parent.StartChild("work")
	defer sp.Finish()
	sideEffect()
}

func cleanAllPaths(parent obs.SpanRef, fail bool) error {
	sp := parent.StartChild("work")
	if fail {
		sp.SetAttr("error", "boom")
		sp.Finish()
		return errors.New("boom")
	}
	sp.Finish()
	return nil
}

func cleanEscapeReturn(parent obs.SpanRef) obs.SpanRef {
	sp := parent.StartChild("work")
	return sp
}

func cleanEscapeStore(parent obs.SpanRef, sink *holder) {
	sp := parent.StartChild("work")
	sink.sp = sp
}

func cleanEscapeArg(parent obs.SpanRef, record func(obs.SpanRef)) {
	sp := parent.StartChild("work")
	record(sp)
}

func cleanClosureFinish(parent obs.SpanRef) {
	sp := parent.StartChild("work")
	done := func() { sp.Finish() }
	defer done()
	sideEffect()
}

// ---- path-sensitive cases (CFG-based analyzer) ----

func leakPanicPath(parent obs.SpanRef, bad bool) {
	sp := parent.StartChild("work")
	if bad {
		panic("invariant violated") // want "may not be finished on this panic path"
	}
	sp.Finish()
}

func leakSwitchReturn(parent obs.SpanRef, n int) error {
	sp := parent.StartChild("work")
	switch n {
	case 0:
		sp.Finish()
		return nil
	default:
		return errors.New("odd") // want "may not be finished on this return path"
	}
}

func cleanSwitchAllCases(parent obs.SpanRef, n int) {
	sp := parent.StartChild("work")
	switch n {
	case 0:
		sp.Finish()
	default:
		sp.Finish()
	}
}

func cleanLoopPerIteration(parent obs.SpanRef, n int) {
	for i := 0; i < n; i++ {
		sp := parent.StartChild("iter")
		sp.SetAttr("i", "x")
		sp.Finish()
	}
}

func cleanPanicWithDefer(parent obs.SpanRef, bad bool) {
	sp := parent.StartChild("work")
	defer sp.Finish()
	if bad {
		panic("invariant violated") // deferred Finish survives the panic
	}
}

// ---- children named by a prefix and a part or an index ----

func leakChildFor(parent obs.SpanRef, source string) {
	sp := parent.StartChildFor("fetch ", source) // want "never finished"
	sp.SetAttr("source", source)
}

func leakChildAtEarlyReturn(parent obs.SpanRef, attempt int, fail bool) error {
	sp := parent.StartChildAt("attempt", attempt)
	if fail {
		return errors.New("boom") // want "may not be finished on this return path"
	}
	sp.Finish()
	return nil
}

func leakChildForDiscarded(parent obs.SpanRef) {
	parent.StartChildFor("eval ", "Select") // want "is discarded"
}

func cleanChildAtDefer(parent obs.SpanRef, ri int) {
	sp := parent.StartChildAt("rewrite", ri)
	defer sp.Finish()
	sideEffect()
}

func cleanChildForGuarded(parent obs.SpanRef, n int64) {
	sp := parent.StartChildFor("eval ", "Select")
	if !sp.IsZero() {
		sp.SetInt("bindings", n)
	}
	sp.Finish()
}

func leakChildForGuardedFinish(parent obs.SpanRef, n int64) {
	sp := parent.StartChildFor("eval ", "Select") // want "may not be finished on every path out of the function"
	if !sp.IsZero() {
		sp.SetInt("bindings", n)
		sp.Finish()
	}
}

// ---- root-span creators (trace store + traceparent joins) ----

func leakRootSpan() {
	sp := obs.NewRootSpan("request", obs.TraceContext{}) // want "never finished"
	sp.SetAttr("k", "v")
}

func leakStoreRoot(store *obs.TraceStore) {
	sp := store.NewRoot("request", obs.TraceContext{}) // want "never finished"
	sp.SetAttr("k", "v")
}

func leakStoreRootEarlyReturn(store *obs.TraceStore, fail bool) error {
	sp := store.NewRoot("request", obs.TraceContext{})
	if fail {
		return errors.New("boom") // want "may not be finished on this return path"
	}
	sp.Finish()
	return nil
}

func cleanStoreRootRecorded(store *obs.TraceStore) {
	sp := store.NewRoot("request", obs.TraceContext{})
	defer sp.Finish()
	sideEffect()
}

func cleanRootSpanEscapes(store *obs.TraceStore) obs.SpanRef {
	sp := store.NewRoot("request", obs.TraceContext{})
	return sp // caller owns the Finish obligation
}

// ---- a StartChild on another type is not a span ----

type otherTracer struct{}

func (otherTracer) StartChildFor(prefix, part string) otherTracer { return otherTracer{} }

func cleanNotASpan(t otherTracer) {
	t.StartChildFor("fetch ", "x")
}
