package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	nimble "repro"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

const adminToken = "bench"

// simLatency is the real sleep every remote fetch of cached-mix pays; the
// other three workloads run at zero latency so CPU is not hidden behind it.
const simLatency = 2 * time.Millisecond

// answer is what the serial twin said a pool query returns.
type answer struct {
	digest [sha256.Size]byte
	rows   int
	bytes  int
}

// deployment is one booted system under test plus what the harness needs
// to drive and check it.
type deployment struct {
	data   *dataset
	sys    *nimble.System
	reg    *obs.Registry
	crm    *rdb.Database
	sims   []*sources.NetworkSim
	timers []*timedSource // only when tracing
	srv    *http.Server
	served chan struct{} // closed when the listener's Serve has returned
	url    string
	oracle []answer // by pool index
}

// timedSource is the bench-owned timing wrapper around a catalog.Source:
// busy time and rows as seen at the source boundary, and a span per fetch
// while a traced pass is recording. It sits inside the network simulation,
// so simulated latency is never counted as source work. Inner lets the
// planner reach the relational descriptors through it.
type timedSource struct {
	inner catalog.Source
	nanos atomic.Int64
	rows  atomic.Int64
	rec   atomic.Pointer[recorder]
}

func (t *timedSource) Name() string                       { return t.inner.Name() }
func (t *timedSource) Capabilities() catalog.Capabilities { return t.inner.Capabilities() }
func (t *timedSource) Inner() catalog.Source              { return t.inner }

func (t *timedSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	rec := t.rec.Load()
	var id int
	if rec != nil {
		id = rec.start("sources.fetch", int(rec.parent.Load()))
	}
	start := time.Now()
	doc, cost, err := t.inner.Fetch(ctx, req)
	t.nanos.Add(int64(time.Since(start)))
	t.rows.Add(int64(cost.RowsReturned))
	if rec != nil {
		rec.end(id)
	}
	return doc, cost, err
}

// config returns the deployment shape of a workload. Everything not set
// here is what cmd/nimbled ships with.
func config(workload string, seed int64, reg *obs.Registry) nimble.Config {
	cfg := nimble.Config{
		Metrics:          reg,
		TraceBuffer:      16,
		TraceSample:      1,
		TraceSlow:        250 * time.Millisecond,
		TraceSeed:        seed + 1,
		SlowLogSize:      16,
		FetchTimeout:     10 * time.Second,
		FetchRetries:     2,
		BreakerThreshold: 5,
	}
	if workload == wlCached {
		cfg.Instances = 2
		cfg.RoutePolicy = "affinity"
		cfg.CacheEntries = 256
		cfg.CachePerInstance = true
		// /admin/refresh does not reach per-instance caches, so entries
		// age out instead: one second, the refresh period.
		cfg.CacheTTL = time.Second
		cfg.InstanceCapacity = 4
		cfg.AdmissionQueue = 64
	}
	return cfg
}

// loadSources builds the source objects of a dataset. They are read-only
// after loading, so the deployment and its serial twin share them.
func loadSources(d *dataset) (crm *rdb.Database, srcs []catalog.Source, err error) {
	crm = rdb.NewDatabase("crm")
	crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
	crm.MustExec(`CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, total FLOAT, status VARCHAR)`)
	crm.MustExec(`CREATE INDEX ON customers (city)`)
	crm.MustExec(`CREATE INDEX ON orders (cust)`)
	for _, c := range d.customers {
		row := rdb.Row{xmldm.Int(c.id), xmldm.String(c.name), xmldm.String(c.city), xmldm.String(c.tier)}
		if err := crm.Insert("customers", row); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range d.orders {
		row := rdb.Row{xmldm.Int(o.oid), xmldm.Int(o.cust), xmldm.Float(o.total), xmldm.String(o.status)}
		if err := crm.Insert("orders", row); err != nil {
			return nil, nil, err
		}
	}
	srcs = append(srcs, sources.NewRelationalSource("crmdb", crm))

	if len(d.tickets) > 0 {
		var sb strings.Builder
		sb.WriteString("<tickets>")
		for _, t := range d.tickets {
			fmt.Fprintf(&sb, `<ticket pri="%s"><cust>%d</cust><subject>%s</subject><owner>%s</owner></ticket>`,
				t.pri, t.cust, t.subject, t.owner)
		}
		sb.WriteString("</tickets>")
		x, err := sources.NewXMLSource("tickets", sb.String())
		if err != nil {
			return nil, nil, err
		}
		srcs = append(srcs, x)
	}
	if len(d.staff) > 0 {
		dir := sources.NewDirectorySource("staff", "org")
		for _, s := range d.staff {
			if err := dir.Put(s.team+"/"+s.sid, map[string]string{"sid": s.sid, "name": s.name, "team": s.team}); err != nil {
				return nil, nil, err
			}
		}
		srcs = append(srcs, dir)
	}
	return crm, srcs, nil
}

// defineSchemas installs the mediated schemas every workload queries.
func defineSchemas(sys *nimble.System) error {
	views := [][2]string{
		{"customers", `WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
			CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`},
		{"directory", `WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where><tier>$t</tier></cust> IN "customers"
			CONSTRUCT <entry><key>$i</key><person><name>$w</name><tier>$t</tier></person><place>$c</place></entry>`},
		{"sales", `WHERE <order><oid>$o</oid><cust>$b</cust><total>$a</total></order> IN "crmdb"
			CONSTRUCT <sale><oid>$o</oid><buyer>$b</buyer><amount>$a</amount></sale>`},
	}
	for _, v := range views {
		if err := sys.DefineSchema(v[0], v[1]); err != nil {
			return fmt.Errorf("define %s: %w", v[0], err)
		}
	}
	return nil
}

// boot generates the data, loads the sources, defines the schemas,
// materializes what the workload materializes, answers every pool query on
// the serial twin, and starts the HTTP listener. traced adds the timing
// wrapper around every source.
func boot(workload string, seed int64, traced bool) (*deployment, error) {
	data, err := generate(workload, seed)
	if err != nil {
		return nil, err
	}
	crm, srcs, err := loadSources(data)
	if err != nil {
		return nil, err
	}
	d := &deployment{data: data, crm: crm, reg: obs.NewRegistry()}
	d.sys = nimble.New(config(workload, seed, d.reg))
	twin := nimble.New(nimble.Config{Parallelism: 1, Metrics: obs.NewRegistry(), TraceBuffer: -1})
	for _, src := range srcs {
		if err := twin.AddSource(src); err != nil {
			return nil, err
		}
		if traced {
			t := &timedSource{inner: src}
			d.timers = append(d.timers, t)
			src = t
		}
		if workload == wlCached {
			sim := sources.NewNetworkSim(src, simLatency, 1.0, seed)
			d.sims = append(d.sims, sim)
			src = sim
		}
		if err := d.sys.AddSource(src); err != nil {
			return nil, err
		}
	}
	for _, s := range []*nimble.System{d.sys, twin} {
		if err := defineSchemas(s); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	if workload == wlCached {
		if err := d.sys.Materialize(ctx, "customers"); err != nil {
			return nil, err
		}
	}

	d.oracle = make([]answer, len(data.pool))
	for i, q := range data.pool {
		res, err := twin.Query(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("oracle: pool query %d: %w", i, err)
		}
		if !res.Complete {
			return nil, fmt.Errorf("oracle: pool query %d incomplete", i)
		}
		if err := checkSize(workload, data, len(res.Values)); err != nil {
			return nil, fmt.Errorf("oracle: pool query %d: %w\n%s", i, err, q)
		}
		body := res.XML()
		d.oracle[i] = answer{digest: sha256.Sum256([]byte(body)), rows: len(res.Values), bytes: len(body)}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.sys.HTTPHandler(adminToken), ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed: close() is the only way out
	}()
	return d, nil
}

// checkSize asserts the expected answer size of a workload's queries, so a
// generator change that empties the answers cannot pass unnoticed.
func checkSize(workload string, data *dataset, rows int) error {
	switch {
	case rows == 0:
		return fmt.Errorf("empty answer")
	case workload == wlExport && rows != len(data.customers):
		return fmt.Errorf("export returned %d rows, want %d", rows, len(data.customers))
	case workload == wlJoin && rows > len(data.tickets):
		return fmt.Errorf("join returned %d rows, more than %d tickets", rows, len(data.tickets))
	}
	return nil
}

// close stops the listener, waits for in-flight requests and for the
// serving goroutine to end.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.sys.Close()
}
