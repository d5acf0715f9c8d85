package nimble

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clean"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestConcurrentMixedWorkload soaks the whole facade under simultaneous
// querying, materialization churn, cache traffic, source updates, and
// cleaning-flow runs — the kind of load a deployed integration server
// sees. Run with -race (the CI suite does) to catch synchronization
// regressions across the matview/qcache/engine interplay.
func TestConcurrentMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sys := New(Config{Instances: 2, CacheEntries: 16})
	db := workload.CustomerDB("crm", 200, 2, 1)
	if err := sys.AddRelationalSource("crmdb", db); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Query workers (cache hits and misses).
	queries := workload.CityQueries(50, 0.9, 3)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := sys.Query(ctx, queries[(i+w)%len(queries)]); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}(w)
	}
	// Materialization churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := sys.Materialize(ctx, "customers"); err != nil {
				errs <- fmt.Errorf("materialize: %w", err)
				return
			}
			if i%3 == 0 {
				sys.Drop("customers")
			} else if err := sys.Refresh(ctx, "customers"); err != nil {
				errs <- fmt.Errorf("refresh: %w", err)
				return
			}
		}
	}()
	// Source-side updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO customers VALUES (%d, 'Soak %d', 'Seattle', 'gold')`, 10000+i, i))
		}
	}()
	// Cleaning flows sharing the system concordance DB and lineage log.
	set := workload.DirtyCustomers(60, 0.3, 9)
	flow := &Flow{
		Name:      "soak",
		Translate: clean.TranslateAddressFields,
		Normalize: map[string]clean.Normalizer{"name": clean.NormalizeName},
		BlockKey:  func(r Record) string { return r.Get("city") + r.Get("address") },
		Matcher: clean.CompositeMatcher([]clean.FieldWeight{
			{Field: "name", Matcher: clean.LevenshteinSimilarity, Weight: 1},
		}),
		MatchThreshold:  0.95,
		ReviewThreshold: 0.95,
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sys.RunCleaningFlow(flow, set.Records, nil, 0); err != nil {
					errs <- fmt.Errorf("clean: %w", err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The system still answers correctly afterwards.
	res, err := sys.Query(ctx, `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <r>$w</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) == 0 {
		t.Error("no results after soak")
	}
}

// buildSoakSystem assembles the three-source chaos-soak deployment:
// a relational CRM, an XML ticket feed, and a source that is (in the
// chaos variant) permanently offline. With withChaos=false it is the
// fault-free twin used as the correctness oracle. The chaos variant
// wraps every source in a seeded fault schedule, runs fault and backoff
// sleeps, attempt deadlines and breaker cooldowns on one fake clock, and
// arms retries plus breakers.
func buildSoakSystem(t testing.TB, withChaos bool, seed int64) (*System, map[string]*chaos.Source) {
	t.Helper()
	cfg := Config{Instances: 1, CacheEntries: 0, TraceBuffer: -1, Metrics: obs.NewRegistry()}
	var clock exec.Clock // nil: the fault-free twin runs on real time
	clk := chaos.NewFakeClock()
	if withChaos {
		clock = clk
		cfg.FetchTimeout = 150 * time.Millisecond // bounds Hang faults
		cfg.FetchRetries = 2
		cfg.RetryBackoff = 10 * time.Millisecond
		cfg.BreakerThreshold = 4
		cfg.BreakerCooldown = 200 * time.Millisecond
	}
	sys := newSystem(cfg, clock)
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", 120, 2, 7)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("tickets", `<tickets>
		<ticket pri="high"><cust>1</cust><subject>Integration escalation</subject></ticket>
		<ticket pri="low"><cust>2</cust><subject>Question about lenses</subject></ticket>
	</tickets>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("dead", `<dead><item>alpha</item><item>beta</item></dead>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("goldcust", `
		WHERE <cust><who>$w</who><where>$c</where><tier>"gold"</tier></cust> IN "customers"
		CONSTRUCT <vip><name>$w</name><city>$c</city></vip>`); err != nil {
		t.Fatal(err)
	}
	if !withChaos {
		return sys, nil
	}
	wrapped := map[string]*chaos.Source{}
	sys.WrapSources(func(src Source) Source {
		var sched chaos.Schedule
		switch src.Name() {
		case "crmdb":
			sched = chaos.Mix{Seed: seed, PUnavailable: 0.12, PMalformed: 0.08,
				PGarbage: 0.04, PHang: 0.04, MaxLatency: 20 * time.Millisecond}
		case "tickets":
			sched = chaos.Flap{Up: 3, Down: 2}
		case "dead":
			sched = chaos.Script{Then: chaos.Fault{Kind: chaos.Unavailable}}
		default:
			return nil
		}
		cs := chaos.Wrap(src, sched).WithSleep(clk.Sleep)
		wrapped[src.Name()] = cs
		return cs
	})
	return sys, wrapped
}

// soakQueries is the deterministic mixed workload: city lookups over
// the mediated schema (→ crmdb), the raw ticket feed, the second-level
// gold-tier schema, and the permanently dead source, round-robin.
func soakQueries(n int) []string {
	cities := workload.Cities()
	qs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			qs = append(qs, fmt.Sprintf(
				`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "%s" CONSTRUCT <hit>$w</hit>`,
				cities[i%len(cities)]))
		case 1:
			qs = append(qs, `WHERE <ticket><subject>$s</subject></ticket> IN "tickets" CONSTRUCT <r>$s</r>`)
		case 2:
			qs = append(qs, `WHERE <vip><name>$n</name></vip> IN "goldcust" CONSTRUCT <g>$n</g>`)
		default:
			qs = append(qs, `WHERE <item>$x</item> IN "dead" CONSTRUCT <r>$x</r>`)
		}
	}
	return qs
}

// runChaosSoak executes n mixed queries against a freshly built chaos
// deployment and returns the full run report. It enforces the soak
// invariants: no query hangs or panics, every Complete result is
// byte-identical to the fault-free twin's answer, every incomplete
// result names its failed sources, and the dead source is quarantined
// by its breaker (fetched far fewer times than it is queried).
func runChaosSoak(t *testing.T, seed int64, n int) string {
	t.Helper()
	baseline, _ := buildSoakSystem(t, false, 0)
	sys, wrapped := buildSoakSystem(t, true, seed)
	ctx := context.Background()

	oracle := map[string]string{}
	var report strings.Builder
	fmt.Fprintf(&report, "chaos soak seed=%d queries=%d\n", seed, n)
	deadQueries := 0
	for i, q := range soakQueries(n) {
		if _, ok := oracle[q]; !ok {
			res, err := baseline.Query(ctx, q)
			if err != nil || !res.Complete {
				t.Fatalf("baseline query %d failed: complete=%v err=%v", i, res != nil && res.Complete, err)
			}
			oracle[q] = res.XML()
		}
		if strings.Contains(q, `"dead"`) {
			deadQueries++
		}
		start := time.Now()
		res, err := sys.Query(ctx, q)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("query %d took %v — resilience layer failed to bound it", i, elapsed)
		}
		switch {
		case err != nil:
			// A clean failure (e.g. a Garbage fault under the partial
			// policy) is acceptable; a panic or hang is not.
			fmt.Fprintf(&report, "q%03d error %v\n", i, err)
		case res.Complete:
			if got := res.XML(); got != oracle[q] {
				t.Errorf("query %d reported Complete but differs from the fault-free answer:\n got %s\nwant %s", i, got, oracle[q])
			}
			fmt.Fprintf(&report, "q%03d ok\n", i)
		default:
			if len(res.FailedSources) == 0 {
				t.Errorf("query %d incomplete without failed sources: %+v", i, res.Completeness)
			}
			fmt.Fprintf(&report, "q%03d partial failed=%v\n", i, res.FailedSources)
		}
	}

	// The breaker must have quarantined the dead source: without it
	// every dead query costs 1+Retries fetches; with it most are
	// skipped before touching the source.
	deadCalls, _ := wrapped["dead"].Stats()
	if deadCalls >= deadQueries {
		t.Errorf("dead source fetched %d times across %d queries — breaker did not quarantine it", deadCalls, deadQueries)
	}
	assertIdle(t, sys)

	// Close the report with the final breaker positions and the injected
	// fault census (sorted: the report is compared byte-for-byte).
	states := sys.BreakerStates()
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&report, "breaker %s=%s\n", k, states[k])
	}
	for _, name := range []string{"crmdb", "dead", "tickets"} {
		calls, injected := wrapped[name].Stats()
		fmt.Fprintf(&report, "%s calls=%d", name, calls)
		for k := chaos.Pass; k <= chaos.Hang; k++ {
			if injected[k] > 0 {
				fmt.Fprintf(&report, " %s=%d", k, injected[k])
			}
		}
		report.WriteString("\n")
	}
	return report.String()
}

// TestChaosSoak runs 200 mixed queries under a seeded fault schedule,
// twice, and demands byte-identical run reports — the determinism
// contract that makes any chaos failure replayable — on top of the
// per-query soak invariants (no hangs, no falsely-Complete results,
// clean degradation). The -tags soak build runs the longer variant.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const seed, n = 20260806, 200
	first := runChaosSoak(t, seed, n)
	second := runChaosSoak(t, seed, n)
	if first != second {
		t.Errorf("same-seed replay diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// The schedule must actually have exercised degradation paths.
	for _, want := range []string{"q000 ok", "partial", "failed=[dead]"} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
}

// TestRetryRecoversEndToEnd: a source that fails twice then recovers is
// healed by the retry layer — the query completes, the retries show up
// in the EXPLAIN fetch node, and the retry counter advances.
func TestRetryRecoversEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	clk := chaos.NewFakeClock()
	sys := newSystem(Config{Instances: 1, TraceBuffer: -1, Metrics: reg, FetchRetries: 2, RetryBackoff: 5 * time.Millisecond}, clk)
	if err := sys.AddXMLSource("feed", `<feed><a>one</a><a>two</a></feed>`); err != nil {
		t.Fatal(err)
	}
	var cs *chaos.Source
	sys.WrapSources(func(src Source) Source {
		cs = chaos.Wrap(src, chaos.Fail(2)).WithSleep(clk.Sleep)
		return cs
	})

	res, err := sys.Query(context.Background(), `WHERE <a>$x</a> IN "feed" CONSTRUCT <r>$x</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Values) != 2 {
		t.Fatalf("result = complete=%v values=%d", res.Complete, len(res.Values))
	}
	if calls, _ := cs.Stats(); calls != 3 {
		t.Errorf("source fetched %d times, want 3 (two failures + recovery)", calls)
	}
	if res.Explain == nil || !strings.Contains(res.Explain.Render(), "retries=2") {
		var plan string
		if res.Explain != nil {
			plan = res.Explain.Render()
		}
		t.Errorf("EXPLAIN missing retry attribution:\n%s", plan)
	}
	if n := reg.Counter("nimble_fetch_retries_total", "source", "feed").Value(); n != 2 {
		t.Errorf("nimble_fetch_retries_total = %d, want 2", n)
	}
}
