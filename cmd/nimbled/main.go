// Command nimbled serves the integration system over HTTP: the query
// endpoint, lenses, catalog listing, statistics, and the admin
// materialization endpoints. It boots the demo customer-integration
// deployment (three sources, two mediated schemas, two lenses) so the
// server is explorable immediately:
//
//	nimbled -addr :8080 -instances 4 -route affinity -cap 8 -queue 64 &
//	curl -XPOST -d 'WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>' localhost:8080/query
//	curl 'localhost:8080/lens/by-city?city=Seattle&device=web'
//	curl -XPOST 'localhost:8080/admin/materialize?schema=customers&token=admin'
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl localhost:8080/debug/cluster
//	curl -XPOST 'localhost:8080/admin/drain?instance=1&token=admin'
//	curl 'localhost:8080/debug/trace/last?n=1'
//	curl -XPOST -d '...' 'localhost:8080/query?profile=1'
//
// Each flag binds straight onto a nimble.Config field (the daemon's own
// settings: -addr, -admin-token, -customers, -drain-timeout and
// -trace-export, onto the daemon), and the System is configured once, at
// nimble.New. A value a flag does not accept, such as -route bogus or
// -query-class bogus, exits 2 with the usage message.
//
// On SIGINT/SIGTERM the daemon drains the cluster gracefully: routing
// stops, in-flight queries finish (bounded by -drain-timeout), then the
// HTTP server shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	nimble "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/workload"
)

// daemon is what a nimbled run is configured with: the System's whole
// configuration, and the daemon's own settings.
type daemon struct {
	cfg          nimble.Config
	addr         string
	drainTimeout time.Duration
	adminToken   string
	customers    int
	traceExport  string
}

// parseFlags binds every flag straight onto d (the System's onto
// d.cfg) and parses args. A value a flag does not accept is an error,
// reported with the usage message on out.
func parseFlags(args []string, out io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("nimbled", flag.ContinueOnError)
	fs.SetOutput(out)
	d := &daemon{cfg: nimble.Config{RoutePolicy: "least", QueryClass: "interactive"}}
	c := &d.cfg
	fs.StringVar(&d.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Instances, "instances", 2, "engine instances behind the cluster front end")
	fs.Func("route", "routing policy: least (default), rr, p2c, affinity", func(v string) error {
		_, err := cluster.ParsePolicy(v)
		c.RoutePolicy = v
		return err
	})
	fs.IntVar(&c.InstanceCapacity, "cap", 0, "per-instance concurrent query cap (0 unbounded)")
	fs.IntVar(&c.AdmissionQueue, "queue", 0, "admission queue bound once all instances are saturated; excess sheds 503 + Retry-After (0 unbounded)")
	fs.IntVar(&c.CacheEntries, "cache", 64, "query cache entries (0 disables)")
	fs.BoolVar(&c.CachePerInstance, "cache-per-instance", false, "give each instance its own cache (pair with -route affinity)")
	fs.DurationVar(&d.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain bound on shutdown")
	fs.StringVar(&d.adminToken, "admin-token", "admin", "token for /admin endpoints")
	fs.IntVar(&d.customers, "customers", 500, "demo dataset size")
	fs.IntVar(&c.TraceBuffer, "traces", 16, "kept query traces retained for /debug/traces and /debug/trace/last (-1 disables tracing)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 1, "head-sampling rate: fraction of traces kept regardless of outcome (errored/slow traces are always kept; negative = tail-only)")
	fs.DurationVar(&c.TraceSlow, "trace-slow", 250*time.Millisecond, "tail-keep traces at least this slow even when head sampling drops them (0 disables)")
	fs.Int64Var(&c.TraceSeed, "trace-seed", 0, "trace/span id generator seed; a fixed seed makes the head-sampled set reproducible (0 = random)")
	fs.StringVar(&d.traceExport, "trace-export", "", "append kept traces as OTLP-style JSON lines to this file (empty disables export)")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.IntVar(&c.SlowLogSize, "slowlog", 16, "slow queries retained with EXPLAIN plans for /debug/slowlog")
	fs.DurationVar(&c.SlowLogThreshold, "slow-threshold", 0, "record queries at least this slow (0 keeps the slowest overall)")
	fs.DurationVar(&c.FetchTimeout, "fetch-timeout", 10*time.Second, "per-attempt remote fetch timeout (0 disables)")
	fs.IntVar(&c.FetchRetries, "fetch-retries", 2, "retries after a transient fetch failure, with exponential backoff (0 disables)")
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", 5, "consecutive transient failures that open a source's circuit breaker (0 disables)")
	fs.IntVar(&c.Parallelism, "parallelism", 0, "intra-query worker goroutines a query requests (0 = the whole worker budget, 1 = serial); the scheduler grants min(requested, available)")
	fs.IntVar(&c.WorkerBudget, "worker-budget", 0, "process-wide extra-worker slots shared by all concurrent queries (0 = GOMAXPROCS)")
	fs.Func("query-class", "default scheduling class: interactive (default) or batch (per-request X-Nimble-Class overrides)", func(v string) error {
		_, err := sched.ParseClass(v)
		c.QueryClass = v
		return err
	})
	return d, fs.Parse(args)
}

func main() {
	d, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	d.cfg.Logger = logger
	sys := nimble.New(d.cfg)
	obs.RegisterRuntimeMetrics(sys.Metrics())
	var fileExp *obs.FileExporter
	if d.traceExport != "" {
		fileExp, err = obs.NewFileExporter(d.traceExport, "nimbled")
		if err != nil {
			log.Fatal(err)
		}
		sys.SetTraceExporter(fileExp)
	}
	if err := boot(sys, d.customers); err != nil {
		log.Fatal(err)
	}
	sys.InstrumentSources()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := server.NewHTTPServer(d.addr, sys.HTTPHandler(d.adminToken))
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("nimbled listening",
		"sources", len(sys.Sources()), "schemas", len(sys.Schemas()),
		"instances", sys.Instances(), "route", d.cfg.RoutePolicy, "addr", d.addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	logger.Info("draining cluster", "bound", d.drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	if err := sys.Cluster().DrainAll(dctx); err != nil {
		logger.Warn("drain incomplete", "error", err.Error())
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	sys.Close()
	if fileExp != nil {
		if err := fileExp.Close(); err != nil {
			logger.Warn("trace export close", "error", err.Error())
		}
	}
	logger.Info("nimbled stopped")
}

// boot assembles the demo deployment.
func boot(sys *nimble.System, customers int) error {
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", customers, 3, 1)); err != nil {
		return err
	}
	if err := sys.AddXMLSource("tickets", `<tickets>
		<ticket pri="high"><cust>1</cust><subject>Integration demo escalation</subject></ticket>
		<ticket pri="low"><cust>2</cust><subject>Question about lenses</subject></ticket>
	</tickets>`); err != nil {
		return err
	}
	dir, err := sys.AddDirectorySource("staff", "org")
	if err != nil {
		return err
	}
	dir.Put("support/eva", map[string]string{"mail": "eva@example.com", "region": "west"})
	dir.Put("support/omar", map[string]string{"mail": "omar@example.com", "region": "east"})

	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`); err != nil {
		return err
	}
	if err := sys.DefineSchema("goldcust", `
		WHERE <cust><who>$w</who><where>$c</where><tier>"gold"</tier></cust> IN "customers"
		CONSTRUCT <vip><name>$w</name><city>$c</city></vip>`); err != nil {
		return err
	}

	if err := sys.PublishLens(&nimble.Lens{
		Name:  "by-city",
		Title: "Customers by city",
		Queries: []string{`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "${city}"
			CONSTRUCT <hit><name>$w</name><city>$p</city></hit>`},
		Params: []nimble.LensParam{{Name: "city", Required: true}},
		Rules: []nimble.LensRule{
			{Match: "hit", Template: `<p><b>{child:name}</b> — {child:city}</p>`},
		},
	}); err != nil {
		return err
	}
	if err := sys.PublishLens(&nimble.Lens{
		Name:      "vips",
		Title:     "Gold-tier customers (authenticated)",
		Queries:   []string{`WHERE <vip><name>$n</name><city>$c</city></vip> IN "goldcust" CONSTRUCT <hit><name>$n</name><city>$c</city></hit>`},
		AuthToken: "vip-secret",
	}); err != nil {
		return err
	}
	fmt.Println("demo queries:")
	fmt.Println(`  curl -XPOST -d 'WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>' localhost:8080/query`)
	fmt.Println(`  curl 'localhost:8080/lens/by-city?city=Seattle&device=web'`)
	fmt.Println(`  curl 'localhost:8080/lens/vips?auth=vip-secret&device=plain'`)
	fmt.Println("observability:")
	fmt.Println(`  curl localhost:8080/metrics                        # Prometheus exposition (+ nimble_runtime_* gauges)`)
	fmt.Println(`  curl 'localhost:8080/debug/traces?min_ms=50&err=1' # search kept traces (add &format=text&depth=4)`)
	fmt.Println(`  curl 'localhost:8080/debug/trace/last?n=1'         # last kept span tree (add &format=xml)`)
	fmt.Println(`  curl -XPOST -d '<query>' 'localhost:8080/query?profile=1'  # embed the span tree in the answer`)
	fmt.Println(`  curl -XPOST -d '<query>' 'localhost:8080/query?explain=1'  # embed the EXPLAIN ANALYZE operator tree`)
	fmt.Println(`  curl localhost:8080/debug/queries                  # active queries + recent slow queries`)
	fmt.Println(`  curl localhost:8080/debug/slowlog                  # slowest queries with their plans`)
	fmt.Println("cluster:")
	fmt.Println(`  curl localhost:8080/debug/cluster                  # instance states, routing, admission queue`)
	fmt.Println(`  curl -XPOST 'localhost:8080/admin/drain?instance=1&token=admin'  # graceful drain`)
	return nil
}
