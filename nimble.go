// Package nimble is the public API of the Nimble XML data integration
// system reproduction (Draper, Halevy, Weld — ICDE 2001): a federated
// query engine with XML as its core representation.
//
// A System integrates data from relational, XML, CSV, and hierarchical
// sources behind mediated schemas defined as XML-QL views
// (global-as-view, hierarchically composable). Queries are XML-QL;
// fragments are compiled into each source's native language (SQL for
// relational sources), results combine in a physical algebra, and the
// compound architecture supports local materialization of views over the
// mediated schemas, query caching, dynamic data cleaning with a
// concordance database, partial results under source unavailability,
// lenses with device-targeted formatting, and load balancing across
// engine instances.
//
// Quickstart:
//
//	sys := nimble.New(nimble.Config{})
//	db := nimble.NewDatabase("crm")
//	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
//	db.MustExec(`INSERT INTO customers VALUES (1, 'Ada')`)
//	sys.AddRelationalSource("crmdb", db)
//	sys.DefineSchema("customers",
//	    `WHERE <customer><name>$n</name></customer> IN "crmdb"
//	     CONSTRUCT <cust><who>$n</who></cust>`)
//	res, err := sys.Query(ctx, `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`)
package nimble

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/catalog"
	"repro/internal/clean"
	"repro/internal/cluster"
	"repro/internal/concord"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lens"
	"repro/internal/lineage"
	"repro/internal/matview"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/rdb"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// Re-exported types, so adopters never import internal packages.
type (
	// Database is the embedded relational engine used as a source
	// substrate (and as local test data).
	Database = rdb.Database
	// Source is the wrapper interface external data sources implement.
	Source = catalog.Source
	// SourceCapabilities describes what query processing a source can
	// perform (implementors of Source return it).
	SourceCapabilities = catalog.Capabilities
	// SourceRequest is the compiled fragment a source receives.
	SourceRequest = catalog.Request
	// SourceCost reports a fetch's size for the optimizer's statistics.
	SourceCost = catalog.Cost
	// Lens is a published, parameterized query with formatting and auth.
	Lens = lens.Lens
	// LensParam declares one lens parameter.
	LensParam = lens.Param
	// LensRule is one formatting rule.
	LensRule = lens.Rule
	// Device is a rendering target for lens output.
	Device = lens.Device
	// Node is an element of the XML data model.
	Node = xmldm.Node
	// Value is any value of the data model.
	Value = xmldm.Value
	// ElemAttr is an attribute passed to NewElement.
	ElemAttr = xmldm.Attr
	// Record is a record under data cleaning.
	Record = clean.Record
	// Flow is a declarative cleaning flow.
	Flow = clean.Flow
	// Completeness reports which sources answered a query.
	Completeness = exec.Completeness
	// DirectorySource is the hierarchical (LDAP-style) source.
	DirectorySource = sources.DirectorySource
	// ExplainTree is the per-operator EXPLAIN ANALYZE statistics tree.
	ExplainTree = core.ExplainTree
	// SlowEntry is one retained slow-query record.
	SlowEntry = core.SlowEntry
	// ActiveQueryInfo is a snapshot of one in-flight query.
	ActiveQueryInfo = core.ActiveQueryInfo
)

// Devices.
const (
	DeviceXML      = lens.DeviceXML
	DeviceWeb      = lens.DeviceWeb
	DeviceWireless = lens.DeviceWireless
	DevicePlain    = lens.DevicePlain
)

// NewDatabase creates an embedded relational database.
func NewDatabase(name string) *Database { return rdb.NewDatabase(name) }

// Config tunes a System.
type Config struct {
	// Instances is the number of engine instances behind the cluster
	// front end (default 1).
	Instances int
	// CacheEntries sizes the query-result cache (0 disables caching).
	CacheEntries int
	// CacheTTL expires cached results (0 = no expiry).
	CacheTTL time.Duration
	// FailOnUnavailable makes queries error when a source is down
	// instead of returning flagged partial results.
	FailOnUnavailable bool
	// DisablePushdown turns off fragment compilation into sources (for
	// ablation; the answer is unchanged, only slower).
	DisablePushdown bool
	// Parallelism is the intra-query degree of parallelism a query's
	// joins and final sort *request*: how many worker goroutines each
	// would like once its input is past its measured crossover. 0 (the
	// default) requests the scheduler's whole worker budget; 1 keeps
	// plans serial. The degree actually used is granted per operator by
	// the shared scheduler against WorkerBudget, for as long as the
	// operator runs, so concurrent operators divide the budget instead of
	// each claiming this many workers. Parallel plans produce
	// byte-identical output to serial ones at any granted degree, so
	// this is purely a throughput knob.
	Parallelism int
	// WorkerBudget is the process-wide pool of extra worker goroutines
	// shared by all running operators across every instance (an operator
	// granted degree d holds d−1 budget slots; the serial floor costs
	// nothing and is never queued). 0 (the default) resolves to
	// runtime.GOMAXPROCS(0).
	WorkerBudget int
	// QueryClass is the default scheduling class for this deployment's
	// queries: "interactive" (the default) may take every free worker
	// slot; "batch" always leaves the last one for interactive work. The
	// per-request X-Nimble-Class header overrides it.
	QueryClass string
	// Metrics is the registry observing this deployment; nil uses the
	// process-wide default registry.
	Metrics *obs.Registry
	// TraceBuffer is how many recent query span trees the system retains
	// for /debug/traces and /debug/trace/last (0 = obs.DefaultTraceBuffer,
	// negative disables tracing entirely; ?profile=1 still works).
	TraceBuffer int
	// TraceSample is the head-sampling rate: the fraction of traces kept
	// regardless of outcome (0 = keep all, negative = tail-only; errored
	// and slow traces are always kept).
	TraceSample float64
	// TraceSlow tail-keeps any trace at least this slow even when head
	// sampling would drop it (0 disables the slow keep).
	TraceSlow time.Duration
	// TraceSeed seeds trace/span id generation; a fixed seed replays the
	// same id sequence so the head-sampled set is deterministic (0 draws
	// a random seed).
	TraceSeed int64
	// Logger receives trace-correlated structured logs from the front
	// end, cluster, and breaker layers (nil discards them).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof on the front end under /debug/pprof/.
	Pprof bool
	// SlowLogSize is how many slow queries the system retains with their
	// EXPLAIN ANALYZE plans (0 = core.DefaultSlowLogSize).
	SlowLogSize int
	// SlowLogThreshold drops queries faster than this from the slow log
	// (0 retains the slowest queries regardless of absolute duration).
	SlowLogThreshold time.Duration
	// FetchTimeout bounds each remote fetch attempt: a hung source
	// costs at most this per attempt instead of hanging the query
	// (0 disables the per-attempt timeout).
	FetchTimeout time.Duration
	// FetchRetries retries transient fetch failures — source
	// unavailable, malformed response, attempt timeout — with jittered
	// exponential backoff (0 disables retries).
	FetchRetries int
	// RetryBackoff is the first backoff step between retries
	// (0 = 50ms default).
	RetryBackoff time.Duration
	// BreakerThreshold opens a per-source circuit breaker after this
	// many consecutive transient failures; while open, fetches to the
	// source fail fast, so queries under the partial policy skip it
	// without paying its timeout (0 disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// one half-open probe through (0 = 5s default).
	BreakerCooldown time.Duration
	// RoutePolicy selects the cluster routing policy: "least" (default),
	// "rr", "p2c", or "affinity" (see internal/cluster.ParsePolicy).
	RoutePolicy string
	// InstanceCapacity caps concurrent queries per engine instance
	// (0 = unbounded).
	InstanceCapacity int
	// AdmissionQueue bounds the cluster's global wait queue once every
	// instance is saturated; excess callers are shed with 503 +
	// Retry-After, as are callers whose deadline would expire while
	// queued (0 = unbounded queue, deadline shedding still applies when
	// instances are capped).
	AdmissionQueue int
	// CachePerInstance gives each instance its own result cache of
	// CacheEntries entries (instead of one shared front cache), the
	// layout the cache-affinity policy targets: repeated queries
	// rendezvous-hash to the instance whose cache is warm.
	CachePerInstance bool
}

// Result is a query answer.
type Result struct {
	// Values are the constructed result elements in order. Treat them
	// as immutable: cached results share them across callers (XML reads
	// them in place; Document returns a copy that is the caller's own).
	Values []Value
	// Complete reports whether every source answered.
	Complete bool
	// FailedSources lists sources that did not answer.
	FailedSources []string
	// Completeness is the full per-source report.
	Completeness Completeness
	// Stats summarizes the execution.
	Stats core.Stats
	// Explain is the per-operator EXPLAIN ANALYZE tree (nil for cache
	// hits, which run no operators).
	Explain *ExplainTree
}

// XML renders the result document (indented).
func (r *Result) XML() string { return xmlparse.SerializeString(r.coreResult().View(), 2) }

// Document returns the result wrapped under a <results> element, as a
// deep copy the caller may modify.
func (r *Result) Document() *Node { return r.coreResult().Document() }

func (r *Result) coreResult() *core.Result {
	return &core.Result{Values: r.Values, Completeness: r.Completeness}
}

// System is one assembled deployment of the integration product.
type System struct {
	cat      *catalog.Catalog
	engines  []*core.Engine
	cluster  *cluster.Cluster
	views    *matview.Manager
	lenses   *lens.Registry
	cleanReg *clean.Registry
	cdb      *concord.DB
	lin      *lineage.Log
	metrics  *obs.Registry
	traces   *obs.TraceStore
	traceQ   *obs.BatchQueue // set by SetTraceExporter before serving
	log      *slog.Logger    // never nil after New
	slow     *core.SlowLog
	active   *core.ActiveRegistry
	breakers *exec.BreakerSet
	sched    *sched.Scheduler
	cfg      Config
}

// New assembles a System. A RoutePolicy or QueryClass it does not know
// panics: Config is programmer input, like a template.
func New(cfg Config) *System { return newSystem(cfg, nil) }

// newSystem is New with the clock fetch attempt deadlines, retry backoff
// and breaker cooldowns run on (nil = real time; tests inject fake time
// for deterministic chaos soaks).
func newSystem(cfg Config, clock exec.Clock) *System {
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	class, err := sched.ParseClass(cfg.QueryClass)
	if err != nil {
		panic(err)
	}
	policy, err := cluster.ParsePolicy(cfg.RoutePolicy)
	if err != nil {
		panic(err)
	}
	cat := catalog.New()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	var traces *obs.TraceStore
	if cfg.TraceBuffer >= 0 {
		traces = obs.NewTraceStore(obs.StoreConfig{
			Limit:         cfg.TraceBuffer,
			SampleRate:    cfg.TraceSample,
			SlowThreshold: cfg.TraceSlow,
			Seed:          cfg.TraceSeed,
			Metrics:       reg,
		})
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &System{
		cat:      cat,
		lenses:   lens.NewRegistry(),
		cleanReg: clean.NewRegistry(),
		cdb:      concord.New(),
		lin:      lineage.New(),
		metrics:  reg,
		traces:   traces,
		log:      logger,
		slow:     core.NewSlowLog(cfg.SlowLogSize, cfg.SlowLogThreshold),
		active:   core.NewActiveRegistry(),
		cfg:      cfg,
		// One scheduler per deployment: every instance's operators acquire
		// from the same worker budget, so the fleet cannot oversubscribe
		// the machine no matter how many instances share it.
		sched: sched.New(sched.Config{Budget: cfg.WorkerBudget, Metrics: reg}),
	}
	reg.GaugeFunc("nimble_active_queries", func() float64 { return float64(s.active.Len()) })
	if cfg.BreakerThreshold > 0 {
		s.breakers = exec.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, clock, reg)
		s.breakers.SetLogger(logger)
	}
	ecfg := core.Config{
		Metrics: reg,
		Traces:  traces,
		Slow:    s.slow,
		Active:  s.active,
		Resilience: exec.Resilience{
			FetchTimeout: cfg.FetchTimeout,
			Retries:      cfg.FetchRetries,
			RetryBase:    cfg.RetryBackoff,
		},
		Breakers:          s.breakers,
		Clock:             clock,
		FailOnUnavailable: cfg.FailOnUnavailable,
		DisablePushdown:   cfg.DisablePushdown,
		Parallelism:       cfg.Parallelism,
		Scheduler:         s.sched,
		Class:             class,
	}
	for i := 0; i < cfg.Instances; i++ {
		ecfg.ID = fmt.Sprintf("engine-%d", i)
		s.engines = append(s.engines, core.New(cat, ecfg))
	}
	s.cluster = cluster.New(cluster.Config{
		Policy:           policy,
		Capacity:         cfg.InstanceCapacity,
		QueueLimit:       cfg.AdmissionQueue,
		Metrics:          reg,
		Logger:           logger,
		CacheEntries:     cfg.CacheEntries,
		CacheTTL:         cfg.CacheTTL,
		CachePerInstance: cfg.CachePerInstance,
	}, s.engines...)
	// One manager computes views through the first engine (NewManager
	// installs it there). The local-store hook is per engine, not part of
	// the shared catalog, so the same manager is installed on every other
	// engine too: a view materialized once answers on whichever instance
	// the cluster routes a query to.
	s.views = matview.NewManager(s.engines[0])
	s.views.SetMetrics(reg)
	s.views.OnChange(s.cluster.Invalidate)
	for _, e := range s.engines[1:] {
		mv := s.views
		e.SetLocalStore(
			func(source string, req catalog.Request) (*xmldm.Node, bool) { return mv.Lookup(source, req) },
			mv.Holds,
		)
	}
	s.registerCleaningFunctions()
	return s
}

// registerCleaningFunctions exposes every registered normalizer to
// queries as normalize_<name>($v) plus similarity($a, $b) — the paper's
// dynamic, query-time cleaning (§3.2).
func (s *System) registerCleaningFunctions() {
	for _, name := range s.cleanReg.NormalizerNames() {
		fn, _ := s.cleanReg.Normalizer(name)
		qlName := "normalize_" + name
		impl := func(fn clean.Normalizer) func([]xmldm.Value) (xmldm.Value, error) {
			return func(args []xmldm.Value) (xmldm.Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("%s expects 1 argument", qlName)
				}
				return xmldm.String(fn(xmldm.Stringify(args[0]))), nil
			}
		}(fn)
		for _, e := range s.engines {
			e.RegisterFunc(qlName, impl)
		}
	}
	sim := func(args []xmldm.Value) (xmldm.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("similarity expects 2 arguments")
		}
		return xmldm.Float(clean.LevenshteinSimilarity(
			xmldm.Stringify(args[0]), xmldm.Stringify(args[1]))), nil
	}
	for _, e := range s.engines {
		e.RegisterFunc("similarity", sim)
	}
}

// AddSource registers any source implementation.
func (s *System) AddSource(src Source) error { return s.cat.AddSource(src) }

// AddRelationalSource wraps an embedded database as a SQL-speaking
// source.
func (s *System) AddRelationalSource(name string, db *Database) error {
	return s.cat.AddSource(sources.NewRelationalSource(name, db))
}

// AddXMLSource registers an XML document as a source.
func (s *System) AddXMLSource(name, xmlText string) error {
	src, err := sources.NewXMLSource(name, xmlText)
	if err != nil {
		return err
	}
	return s.cat.AddSource(src)
}

// AddCSVSource registers CSV data (header row first) as a source.
func (s *System) AddCSVSource(name string, r io.Reader) error {
	src, err := sources.NewCSVSource(name, r)
	if err != nil {
		return err
	}
	return s.cat.AddSource(src)
}

// AddDirectorySource registers a hierarchical source and returns it for
// population via Put.
func (s *System) AddDirectorySource(name, rootEntry string) (*DirectorySource, error) {
	d := sources.NewDirectorySource(name, rootEntry)
	if err := s.cat.AddSource(d); err != nil {
		return nil, err
	}
	return d, nil
}

// WrapNetwork wraps a source with simulated latency and availability for
// experiments; register the returned source. (Real deployments have real
// networks; the wrapper stands in for them per DESIGN.md's substitution
// table.)
func WrapNetwork(src Source, latency time.Duration, availability float64, seed int64) Source {
	return sources.NewNetworkSim(src, latency, availability, seed)
}

// NewXMLSource builds a standalone XML-document source (use AddSource to
// register it — or AddXMLSource for the common register-immediately
// case). Useful for wrapping with WrapNetwork first.
func NewXMLSource(name, xmlText string) (Source, error) {
	return sources.NewXMLSource(name, xmlText)
}

// NewRelationalSource builds a standalone SQL-speaking source over an
// embedded database, for wrapping before registration.
func NewRelationalSource(name string, db *Database) Source {
	return sources.NewRelationalSource(name, db)
}

// DefineSchema adds a view definition (XML-QL) to a mediated schema,
// creating it on first use; multiple definitions union. A definition
// that would make the schema hierarchy cyclic is rejected and not
// recorded.
func (s *System) DefineSchema(name, viewQL string) error {
	if err := s.cat.DefineViewQLChecked(name, viewQL); err != nil {
		return err
	}
	s.cluster.Invalidate(name)
	return nil
}

// Query runs an XML-QL query through the cluster front end and its
// result cache.
func (s *System) Query(ctx context.Context, q string) (*Result, error) {
	cr, err := s.cluster.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Result{
		Values:        cr.Values,
		Complete:      cr.Completeness.Complete,
		FailedSources: cr.Completeness.FailedSources(),
		Completeness:  cr.Completeness,
		Stats:         cr.Stats,
		Explain:       cr.Explain,
	}, nil
}

// Materialize stores a mediated schema's document locally; later queries
// over it answer from the local copy until Refresh or Drop.
func (s *System) Materialize(ctx context.Context, schema string) error {
	return s.views.Materialize(ctx, schema)
}

// Refresh re-materializes a schema (or all, with empty name).
func (s *System) Refresh(ctx context.Context, schema string) error {
	if schema == "" {
		return s.views.RefreshAll(ctx)
	}
	return s.views.Refresh(ctx, schema)
}

// Drop removes a schema's local copy, restoring virtual querying.
func (s *System) Drop(schema string) { s.views.Drop(schema) }

// Materialized lists locally materialized schemas.
func (s *System) Materialized() []string { return s.views.Materialized() }

// PublishLens registers a lens.
func (s *System) PublishLens(l *Lens) error { return s.lenses.Publish(l) }

// RenderLens binds parameters, runs the lens queries, and renders for
// the device.
func (s *System) RenderLens(ctx context.Context, name string, params map[string]string, device Device, authToken string) (string, error) {
	l, ok := s.lenses.Get(name)
	if !ok {
		return "", fmt.Errorf("nimble: no lens %q", name)
	}
	if err := l.Authorize(authToken); err != nil {
		return "", err
	}
	queries, err := l.Bind(params)
	if err != nil {
		return "", err
	}
	doc, err := server.RunLens(ctx, s.cluster, queries)
	if err != nil {
		return "", err
	}
	return l.Render(doc, device), nil
}

// CleanRegistry exposes the normalization/matching registry for
// customer-provided functions; re-run RegisterCleaningFunctions to make
// new normalizers visible to queries.
func (s *System) CleanRegistry() *clean.Registry { return s.cleanReg }

// RegisterCleaningFunctions re-exports the registry's normalizers into
// the query language (call after registering custom normalizers).
func (s *System) RegisterCleaningFunctions() { s.registerCleaningFunctions() }

// Concordance returns the system's concordance database.
func (s *System) Concordance() *concord.DB { return s.cdb }

// Lineage returns the cleaning lineage log.
func (s *System) Lineage() *lineage.Log { return s.lin }

// RunCleaningFlow executes a declarative cleaning flow against records,
// using the system concordance database and lineage log. oracle may be
// nil (extraction phase).
func (s *System) RunCleaningFlow(f *Flow, records []Record, oracle clean.Oracle, oracleBudget int) (*clean.Result, error) {
	var b *clean.BudgetedOracle
	if oracle != nil {
		b = &clean.BudgetedOracle{Inner: oracle, Budget: oracleBudget}
	}
	return f.Run(records, s.cdb, b, s.lin)
}

// HTTPHandler exposes the front end (query endpoint, lenses, catalog,
// stats, admin).
func (s *System) HTTPHandler(adminToken string) http.Handler {
	srv := &server.Server{
		Cluster:    s.cluster,
		Lenses:     s.lenses,
		Views:      s.views,
		AdminToken: adminToken,
		Metrics:    s.metrics,
		Traces:     s.traces,
		Logger:     s.log,
		Pprof:      s.cfg.Pprof,
		Slow:       s.slow,
		Active:     s.active,
		Breakers:   s.breakers,
	}
	return srv.Handler()
}

// Metrics returns the registry observing this deployment (the
// process-wide default unless Config.Metrics was set). Serve it with
// Registry.WritePrometheus, or via the front end's /metrics endpoint.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Traces returns the sampled-trace store behind /debug/traces and
// /debug/trace/last (nil when Config.TraceBuffer is negative).
func (s *System) Traces() *obs.TraceStore { return s.traces }

// Scheduler returns the shared worker scheduler the parallel operators
// of every instance of this deployment acquire from (see
// Config.WorkerBudget / Config.QueryClass).
func (s *System) Scheduler() *sched.Scheduler { return s.sched }

// SetTraceExporter attaches a batching exporter to the trace store:
// every kept trace is offered to a bounded queue drained by a
// background worker (full queue = drop with counter, never blocking
// the query path). Call before serving; Close flushes and stops the
// worker. No-op when tracing is disabled or exp is nil.
func (s *System) SetTraceExporter(exp obs.Exporter) {
	if s.traces == nil || exp == nil {
		return
	}
	s.traceQ = obs.NewBatchQueue(exp, 0, 0, s.metrics)
	s.traces.SetExporter(s.traceQ)
}

// FlushTraces blocks until every trace kept before the call has been
// handed to the exporter (no-op without an exporter).
func (s *System) FlushTraces() { s.traceQ.Flush() }

// Close releases background machinery: the trace export queue is
// flushed and stopped. The System remains queryable (later kept traces
// simply stop exporting).
func (s *System) Close() {
	if s.traceQ != nil {
		s.traces.SetExporter(nil)
		s.traceQ.Close()
	}
}

// SlowQueries lists the retained slow-query entries, slowest first, each
// with its rendered EXPLAIN ANALYZE plan (the /debug/slowlog view).
func (s *System) SlowQueries() []SlowEntry { return s.slow.Entries() }

// ActiveQueries snapshots the queries executing right now across all
// instances (the /debug/queries view).
func (s *System) ActiveQueries() []ActiveQueryInfo { return s.active.Snapshot() }

// InstrumentSources wraps every currently registered source with
// source-side fetch metrics (nimble_source_* series, distinct from the
// execution layer's nimble_fetch_* series, which also count local-store
// answers).
func (s *System) InstrumentSources() {
	s.cat.WrapAll(func(src Source) Source {
		if _, already := src.(*sources.Instrumented); already {
			return nil
		}
		return sources.Instrument(src, s.metrics)
	})
}

// WrapSources replaces every registered source with wrap(source) — the
// entry point the chaos harness uses to make a whole deployment's
// sources misbehave (internal/chaos.Wrap). wrap must preserve the
// source's name; returning nil keeps a source unwrapped.
func (s *System) WrapSources(wrap func(Source) Source) { s.cat.WrapAll(wrap) }

// BreakerStates snapshots every source circuit breaker's position
// ("closed", "half-open", "open"); empty when Config.BreakerThreshold
// left breakers disabled. Also served on /debug/queries.
func (s *System) BreakerStates() map[string]string { return s.breakers.States() }

// CacheStats reports query-cache effectiveness over every cache the
// cluster holds: the shared one, or the per-instance ones under
// Config.CachePerInstance (zero value when caching is disabled).
func (s *System) CacheStats() qcache.Stats { return s.cluster.CacheStats() }

// Sources lists registered source names.
func (s *System) Sources() []string { return s.cat.SourceNames() }

// Schemas lists mediated schema names.
func (s *System) Schemas() []string { return s.cat.SchemaNames() }

// Engine exposes instance i (experiments need per-instance control).
func (s *System) Engine(i int) *core.Engine { return s.engines[i] }

// Cluster exposes the dispatch layer: routing policy, capacity control,
// admission queue, graceful drain, and the /debug/cluster snapshot.
func (s *System) Cluster() *cluster.Cluster { return s.cluster }

// Views exposes the materialized-view manager (refresh modes, TTL).
func (s *System) Views() *matview.Manager { return s.views }

// Instances reports the engine instance count.
func (s *System) Instances() int { return len(s.engines) }

// NewElement builds an element tree for custom Source implementations:
// children may be *Node (adopted), ElemAttr (attribute), string/int/
// float64/bool (text content), or any Value. Parent pointers and
// document ordinals are assigned, so the tree is immediately matchable.
func NewElement(name string, children ...any) *Node {
	return xmldm.NewBuilder().Elem(name, children...)
}

// ParseXML parses an XML document into the data model.
func ParseXML(text string) (*Node, error) { return xmlparse.ParseString(text) }

// SerializeXML renders a node as XML text.
func SerializeXML(n *Node, indent int) string { return xmlparse.SerializeString(n, indent) }
