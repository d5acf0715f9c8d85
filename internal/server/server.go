// Package server is the system front end: an HTTP interface offering the
// "multiple layers of access" of §2.1 — the low-level query endpoint for
// applications that want the integration engine directly, the lens layer
// with device-targeted formatting, and the management endpoints
// (materialization, refresh, statistics) that let administrators "set
// up, monitor, and understand, the system" (§4). Dispatch across engine
// instances (§2.1: "multiple instances of the integration engine can be
// run simultaneously") is delegated entirely to the internal/cluster
// front end: routing policy, admission control with
// deadline-aware shedding (surfaced here as 503 + Retry-After), and
// graceful drain (the /admin/drain endpoint).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lens"
	"repro/internal/matview"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// Server wires the cluster front end (and the result caches it owns),
// lenses, and materialized store into an http.Handler.
type Server struct {
	Cluster *cluster.Cluster
	Lenses  *lens.Registry
	Views   *matview.Manager // optional; its OnChange goes to Cluster.Invalidate
	// AdminToken guards the admin endpoints when non-empty.
	AdminToken string
	// Metrics is the registry behind /metrics and the per-endpoint
	// latency series; nil falls back to obs.Default().
	Metrics *obs.Registry
	// Traces, when set, makes the server the trace origin: every query
	// request gets a root span (joining an incoming W3C traceparent
	// header when present), the whole tier chain hangs under it, and the
	// finished trace is offered to the store's sampler. Feeds
	// /debug/traces and /debug/trace/last.
	Traces *obs.TraceStore
	// Logger receives structured request/error logs with trace
	// correlation (nil discards them).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Slow and Active feed /debug/slowlog and /debug/queries; wire them
	// to the same instances the engines report into (core.Config).
	// Both are nil-safe.
	Slow   *core.SlowLog
	Active *core.ActiveRegistry
	// Breakers, when set, adds per-source circuit-breaker states to
	// /debug/queries (wire the same set the engines fetch through).
	// Nil-safe.
	Breakers *exec.BreakerSet
}

func (s *Server) registry() *obs.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return obs.Default()
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return obs.NopLogger()
}

// startTrace opens the root span for a query-path request when tracing
// is configured: an incoming W3C traceparent header joins the caller's
// trace, and the response carries this span's identity back so the
// caller can fetch the kept trace by id. Returns the original context
// and the no-op span when tracing is off (the chain degrades to no-ops).
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, name string) (context.Context, obs.SpanRef) {
	if s.Traces == nil {
		return r.Context(), obs.SpanRef{}
	}
	tc, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	sp := s.Traces.NewRoot(name, tc)
	sp.SetAttr("method", r.Method)
	sp.SetAttr("path", r.URL.Path)
	w.Header().Set("traceparent", obs.FormatTraceparent(sp.TraceContext()))
	return obs.ContextWithSpan(r.Context(), sp), sp
}

// finishTrace completes the request's root span and offers it to the
// sampler (a no-op for untraced requests).
func (s *Server) finishTrace(sp obs.SpanRef) {
	sp.Finish()
	s.Traces.Record(sp)
}

// Handler builds the HTTP routing table. Every endpoint is wrapped with
// request-count and latency instrumentation. (Per-instance in-flight
// gauges — nimble_cluster_inflight — are registered by the cluster
// itself when it is built with a metrics registry.)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/lenses", s.instrument("lenses", s.handleLensList))
	mux.HandleFunc("/lens/", s.instrument("lens", s.handleLens))
	mux.HandleFunc("/catalog", s.instrument("catalog", s.handleCatalog))
	mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/debug/trace/last", s.instrument("trace", s.handleTraceLast))
	mux.HandleFunc("/debug/traces", s.instrument("traces", s.handleTraces))
	mux.HandleFunc("/debug/queries", s.instrument("debug_queries", s.handleDebugQueries))
	mux.HandleFunc("/debug/slowlog", s.instrument("slowlog", s.handleSlowLog))
	mux.HandleFunc("/debug/cluster", s.instrument("debug_cluster", s.handleDebugCluster))
	mux.HandleFunc("/admin/drain", s.instrument("admin", s.adminOnly(s.handleDrain)))
	mux.HandleFunc("/admin/materialize", s.instrument("admin", s.adminOnly(s.handleMaterialize)))
	mux.HandleFunc("/admin/refresh", s.instrument("admin", s.adminOnly(s.handleRefresh)))
	mux.HandleFunc("/admin/schema", s.instrument("admin", s.adminOnly(s.handleDefineSchema)))
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with per-endpoint request and latency
// metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// The endpoint's series, resolved at its first request and held.
	series := sync.OnceValues(func() (*obs.Counter, *obs.Histogram) {
		reg := s.registry()
		return reg.Counter("nimble_http_requests_total", "endpoint", endpoint),
			reg.Histogram("nimble_http_request_seconds", "endpoint", endpoint)
	})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		requests, seconds := series()
		requests.Inc()
		seconds.Observe(time.Since(start).Seconds())
	}
}

// handleMetrics serves the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.registry().WritePrometheus(w)
}

// handleTraceLast serves the most recent kept traces:
// GET /debug/trace/last?n=5&format=json|xml (default: all retained,
// JSON). Retained as the PR 1 surface; /debug/traces is the searchable
// successor.
func (s *Server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	traces := s.Traces.Last(n)
	if r.URL.Query().Get("format") == "xml" {
		root := &xmldm.Node{Name: "traces"}
		for _, t := range traces {
			sn := spanNode(t)
			sn.Parent = root
			root.Children = append(root.Children, sn)
		}
		xmldm.Finalize(root)
		writeXML(w, root)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if traces == nil {
		traces = []*obs.Span{}
	}
	json.NewEncoder(w).Encode(traces)
}

// writeXML sends n as the indented XML body of a 200 response. The body
// is serialized whole into a pooled buffer first, so the response carries
// its Content-Length and reaches the connection in one write instead of
// being chunked; serializing reads only names, attributes and children,
// so n may be an unfinalized view over shared nodes.
func writeXML(w http.ResponseWriter, n *xmldm.Node) {
	buf := xmlparse.NewBuffer()
	defer buf.Release()
	buf.WriteNode(n, 2)
	writeBody(w, buf.Bytes())
}

// writeBody sends an XML document as a 200 response framed by its length.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleTraces is the searchable trace store:
// GET /debug/traces?min_ms=50&err=1&source=crmdb&n=5&format=json|text.
// JSON returns the matching span trees (most recent first); format=text
// renders each as an ASCII tree, with ?depth= and ?nodes= bounding the
// rendering of deep fan-out traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	var q obs.Query
	if ms, err := strconv.ParseFloat(qv.Get("min_ms"), 64); err == nil && ms > 0 {
		q.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	q.ErrOnly = qv.Get("err") == "1" || qv.Get("err") == "true"
	q.Source = qv.Get("source")
	if n, err := strconv.Atoi(qv.Get("n")); err == nil && n > 0 {
		q.Limit = n
	}
	traces := s.Traces.Search(q)
	if qv.Get("format") == "text" {
		depth, _ := strconv.Atoi(qv.Get("depth"))
		nodes, _ := strconv.Atoi(qv.Get("nodes"))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range traces {
			fmt.Fprintf(w, "trace %s\n%s\n", t.TraceID(), obs.RenderTreeLimited(t, depth, nodes))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if traces == nil {
		traces = []*obs.Span{}
	}
	json.NewEncoder(w).Encode(traces)
}

// handleDebugQueries is the query inspector: what is running right now
// (pg_stat_activity style), the recent slow queries, and the per-source
// circuit-breaker states, as JSON.
func (s *Server) handleDebugQueries(w http.ResponseWriter, _ *http.Request) {
	active := s.Active.Snapshot()
	if active == nil {
		active = []core.ActiveQueryInfo{}
	}
	slow := s.Slow.Entries()
	if slow == nil {
		slow = []core.SlowEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Active   []core.ActiveQueryInfo `json:"active"`
		Slow     []core.SlowEntry       `json:"slow"`
		Breakers map[string]string      `json:"breakers"`
	}{active, slow, s.Breakers.States()})
}

// handleDebugCluster serves the cluster inspector: per-instance state,
// outstanding queries and cache effectiveness, plus the admission queue,
// shed counters and the worker scheduler (breaker positions are on
// /debug/queries).
func (s *Server) handleDebugCluster(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Cluster.Status())
}

// handleDrain gracefully drains an instance: stop routing to it, wait
// for its in-flight queries (bounded by ?timeout=, default 30s), then
// remove it from the registry. POST /admin/drain?instance=N&token=...
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /admin/drain?instance=N", http.StatusMethodNotAllowed)
		return
	}
	i, err := strconv.Atoi(r.URL.Query().Get("instance"))
	if err != nil || i < 0 || i >= s.Cluster.Instances() {
		http.Error(w, "instance parameter must name a registered instance", http.StatusBadRequest)
		return
	}
	timeout := 30 * time.Second
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.Cluster.Drain(ctx, i); err != nil {
		http.Error(w, fmt.Sprintf("drain of instance %d did not finish: %v", i, err), http.StatusGatewayTimeout)
		return
	}
	fmt.Fprintf(w, "instance %d drained\n", i)
}

// writeQueryError maps a dispatch error onto the right status: shed
// queries become 503 with a Retry-After hint, everything else 400.
func writeQueryError(w http.ResponseWriter, err error) {
	var oe *cluster.OverloadError
	if errors.As(err, &oe) {
		w.Header().Set("Retry-After", strconv.Itoa(oe.RetryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// handleSlowLog serves the retained slow-query entries (slowest first,
// each with its rendered EXPLAIN ANALYZE plan) as JSON.
func (s *Server) handleSlowLog(w http.ResponseWriter, _ *http.Request) {
	entries := s.Slow.Entries()
	if entries == nil {
		entries = []core.SlowEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		ThresholdMS float64          `json:"threshold_ms"`
		Entries     []core.SlowEntry `json:"entries"`
	}{float64(s.Slow.Threshold()) / float64(time.Millisecond), entries})
}

// spanNode converts a span tree to XML for profile embedding and the
// XML trace format.
func spanNode(sp *obs.Span) *xmldm.Node {
	n := &xmldm.Node{Name: "span"}
	n.Attrs = append(n.Attrs,
		xmldm.Attr{Name: "name", Value: sp.Name()},
		xmldm.Attr{Name: "duration_ms", Value: fmt.Sprintf("%.3f", float64(sp.Duration())/float64(time.Millisecond))})
	for _, a := range sp.Attrs() {
		n.Attrs = append(n.Attrs, xmldm.Attr{Name: a.Key, Value: a.Value})
	}
	for _, c := range sp.Children() {
		cn := spanNode(c)
		cn.Parent = n
		n.Children = append(n.Children, cn)
	}
	return n
}

// handleDefineSchema adds a view definition to a mediated schema: the
// management-tool path for "mappings are set via the management tools"
// (§2.1). POST /admin/schema?name=X with the XML-QL view as the body.
func (s *Server) handleDefineSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST the view definition", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "name parameter required", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cat := s.Cluster.Engine(0).Catalog()
	if err := cat.DefineViewQLChecked(name, string(body)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.Cluster.Invalidate(name)
	fmt.Fprintf(w, "schema %s extended\n", name)
}

func (s *Server) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.AdminToken != "" && r.URL.Query().Get("token") != s.AdminToken {
			http.Error(w, "admin token required", http.StatusForbidden)
			return
		}
		h(w, r)
	}
}

// handleQuery runs a raw XML-QL query (POST body, or GET ?q=) and
// returns XML. ?profile=1 embeds the execution span tree as a <profile>
// element; ?explain=1 embeds the per-operator EXPLAIN ANALYZE report as
// an <explain> element. Both bypass the result cache (the cluster
// decides) so the report reflects a real execution.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q string
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q = strings.TrimSpace(string(body))
	case http.MethodGet:
		q = strings.TrimSpace(r.URL.Query().Get("q"))
	default:
		http.Error(w, "POST an XML-QL query, or GET /query?q=...", http.StatusMethodNotAllowed)
		return
	}
	if q == "" {
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	flag := func(name string) bool {
		v := r.URL.Query().Get(name)
		return v == "1" || v == "true"
	}
	profile, explain := flag("profile"), flag("explain")
	// X-Nimble-Class picks the scheduling class this query's operators
	// acquire workers under: "interactive" (the default) or "batch".
	// Validated up front so a typo is a 400, not a query error.
	class := strings.TrimSpace(r.Header.Get("X-Nimble-Class"))
	if _, err := sched.ParseClass(class); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, sp := s.startTrace(w, r, "request")
	defer s.finishTrace(sp)
	start := time.Now()
	// The answer is assembled in one pooled buffer, the <results> root
	// last, once the query knows whether it is complete. The engine
	// appends the rows, sorted or not, explained, profiled or plain; an
	// answer the cache answers or stores comes back as Values — the
	// cache's own, on a hit — and is appended from them.
	buf := xmlparse.NewBuffer()
	defer buf.Release()
	buf.StartDocument(2)
	qo := core.QueryOptions{Profile: profile, Explain: explain, Class: class, Buffer: buf}
	res, err := s.Cluster.QueryOpt(ctx, q, qo)
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.logger().WarnContext(ctx, "query failed", "query", q, "error", err.Error())
		writeQueryError(w, err)
		return
	}
	s.logger().InfoContext(ctx, "query served", "query", q,
		"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	writeBody(w, endAnswer(buf, res, explain, profile))
}

// endAnswer completes the answer document buf began: it appends res's
// Values (empty when the engine already appended the rows) and, when
// asked, the <explain> report and the <profile> span tree, then closes
// the document under res's <results> root and returns its bytes.
func endAnswer(buf *xmlparse.Buffer, res *core.Result, explain, profile bool) []byte {
	for _, v := range res.Values {
		buf.WriteChild(v.(*xmldm.Node))
	}
	if explain && res.Explain != nil {
		ex := &xmldm.Node{Name: "explain"}
		ex.Attrs = append(ex.Attrs,
			xmldm.Attr{Name: "operators", Value: strconv.FormatInt(res.Stats.OperatorsRun, 10)},
			xmldm.Attr{Name: "drain_ms", Value: fmt.Sprintf("%.3f", float64(res.Stats.DrainNanos)/1e6)})
		ex.Children = append(ex.Children, xmldm.String("\n"+res.Explain.Render()))
		buf.WriteChild(ex)
	}
	if profile && res.Trace != nil {
		buf.WriteChild(&xmldm.Node{Name: "profile", Children: []xmldm.Value{spanNode(res.Trace)}})
	}
	return buf.EndDocument(res.View())
}

// NewHTTPServer wraps a handler in an http.Server with the timeouts a
// front end needs so one slow client cannot pin a balancer slot
// forever: header-read, full-request-read, write, and idle bounds.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// RunLens runs a lens's bound queries through the cluster and joins Document
// copies of their answers — never the cache's shared nodes — under one
// <results> root, complete="false" if any was partial: the lens run behind
// both /lens/ and System.RenderLens.
func RunLens(ctx context.Context, c *cluster.Cluster, queries []string) (*xmldm.Node, error) {
	combined := &xmldm.Node{Name: "results"}
	complete := true
	for _, q := range queries {
		res, err := c.Query(ctx, q)
		if err != nil {
			return nil, err
		}
		complete = complete && res.Completeness.Complete
		for _, e := range res.Document().ChildElements() {
			e.Parent = combined
			combined.Children = append(combined.Children, e)
		}
	}
	if !complete {
		combined.Attrs = append(combined.Attrs, xmldm.Attr{Name: "complete", Value: "false"})
	}
	xmldm.Finalize(combined)
	return combined, nil
}

func (s *Server) handleLensList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	for _, n := range s.Lenses.Names() {
		fmt.Fprintln(w, n)
	}
}

// handleLens serves GET /lens/{name}?device=web&auth=...&param=value.
func (s *Server) handleLens(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/lens/")
	l, ok := s.Lenses.Get(name)
	if !ok {
		http.Error(w, "no such lens", http.StatusNotFound)
		return
	}
	qv := r.URL.Query()
	if err := l.Authorize(qv.Get("auth")); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	device := lens.ParseDevice(qv.Get("device"))
	params := map[string]string{}
	for k, vs := range qv {
		if k == "device" || k == "auth" {
			continue
		}
		if len(vs) > 0 {
			params[k] = vs[0]
		}
	}
	queries, err := l.Bind(params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, sp := s.startTrace(w, r, "lens")
	defer s.finishTrace(sp)
	sp.SetAttr("lens", name)
	combined, err := RunLens(ctx, s.Cluster, queries)
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.logger().WarnContext(ctx, "lens query failed", "lens", name, "error", err.Error())
		writeQueryError(w, err)
		return
	}

	switch device {
	case lens.DeviceWeb:
		w.Header().Set("Content-Type", "text/html")
	case lens.DeviceXML:
		w.Header().Set("Content-Type", "application/xml")
	default:
		w.Header().Set("Content-Type", "text/plain")
	}
	io.WriteString(w, l.Render(combined, device))
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	cat := s.Cluster.Engine(0).Catalog()
	root := &xmldm.Node{Name: "catalog"}
	for _, n := range cat.SourceNames() {
		c := &xmldm.Node{Name: "source", Parent: root, Children: []xmldm.Value{xmldm.String(n)}}
		root.Children = append(root.Children, c)
	}
	for _, n := range cat.SchemaNames() {
		c := &xmldm.Node{Name: "schema", Parent: root, Children: []xmldm.Value{xmldm.String(n)}}
		root.Children = append(root.Children, c)
	}
	xmldm.Finalize(root)
	writeXML(w, root)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	for i, n := range s.Cluster.Loads() {
		fmt.Fprintf(w, "engine[%d] queries=%d\n", i, n)
	}
	st := s.Cluster.CacheStats()
	fmt.Fprintf(w, "cache hits=%d misses=%d entries=%d hit_rate=%.3f\n",
		st.Hits, st.Misses, st.Entries, st.HitRate())
	if s.Views != nil {
		entries := s.Views.Entries()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Schema < entries[j].Schema })
		for _, e := range entries {
			fmt.Fprintf(w, "matview %s elements=%d hits=%d refreshed=%s\n",
				e.Schema, e.Elements, e.Hits, e.RefreshedAt.Format(time.RFC3339))
		}
	}
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	if s.Views == nil {
		http.Error(w, "materialized views are not configured", http.StatusBadRequest)
		return
	}
	schema := r.URL.Query().Get("schema")
	if schema == "" {
		http.Error(w, "schema parameter required", http.StatusBadRequest)
		return
	}
	if err := s.Views.Materialize(r.Context(), schema); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "materialized %s\n", schema)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if s.Views == nil {
		http.Error(w, "materialized views are not configured", http.StatusBadRequest)
		return
	}
	schema := r.URL.Query().Get("schema")
	var err error
	if schema == "" {
		err = s.Views.RefreshAll(r.Context())
	} else {
		err = s.Views.Refresh(r.Context(), schema)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintln(w, "refreshed")
}
