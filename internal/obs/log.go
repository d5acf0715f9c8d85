// Trace-correlated structured logging. Components log through a
// *slog.Logger whose handler pulls the active span out of the context
// and stamps trace_id/span_id onto every record, so a log line is
// always joinable against the kept trace (and vice versa: a trace id
// from /debug/traces greps straight into the log stream). Call sites
// use the context-taking slog methods (InfoContext, WarnContext, ...)
// for the correlation to apply.
package obs

import (
	"context"
	"io"
	"log/slog"
)

// NewLogger returns a JSON-lines logger writing to w at the given
// minimum level, with trace correlation from context spans.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	inner := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(&traceHandler{inner: inner})
}

// NopLogger returns a logger that discards everything — the default for
// components constructed without a logger, so call sites never nil-check.
func NopLogger() *slog.Logger {
	return slog.New(nopHandler{})
}

// traceHandler decorates records with the context span's identity.
type traceHandler struct {
	inner slog.Handler
}

func (h *traceHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if tc := FromContext(ctx).TraceContext(); !tc.IsZero() {
		r = r.Clone()
		r.AddAttrs(slog.String("trace_id", tc.TraceID.String()))
		if id := tc.SpanID.String(); id != "" {
			r.AddAttrs(slog.String("span_id", id))
		}
	}
	return h.inner.Handle(ctx, r)
}

func (h *traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &traceHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *traceHandler) WithGroup(name string) slog.Handler {
	return &traceHandler{inner: h.inner.WithGroup(name)}
}

// nopHandler is a hand-rolled discard handler (slog.DiscardHandler
// arrives in a later Go than this module targets).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }
