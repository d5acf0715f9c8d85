package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// formCounter counts the fetches a relational source answers in each
// form; embedding keeps its descriptors, statistics and row capability.
type formCounter struct {
	*sources.RelationalSource
	docs, rows atomic.Int64
}

func (c *formCounter) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	c.docs.Add(1)
	return c.RelationalSource.Fetch(ctx, req)
}

func (c *formCounter) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	c.rows.Add(1)
	return c.RelationalSource.FetchRows(ctx, req)
}

// hideRows forwards Fetch and Inner() but not the row capability: any
// wrapper that does not implement it, which the access therefore reads
// as documents.
type hideRows struct{ catalog.Source }

func (h hideRows) Inner() catalog.Source { return h.Source }

// chaosQueries each fetch crmdb once, so a sequential run walks the
// fault schedule in the same order whatever the form: a pushed fragment
// with a predicate, the bound join's keyed fetch, and a whole-fragment
// scan through the view.
var chaosQueries = []string{
	`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 4 CONSTRUCT <r><i>$i</i><n>$n</n></r>`,
	bindJoinQL,
	`WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`,
}

// TestRowFetchUnderChaosMatchesXMLTwin runs one seeded fault schedule —
// malformed, unavailable, garbage, hung and slow fetches, each attempt
// bounded by a timeout on the same fake clock the faults sleep on — over
// crmdb twice: once through a chaos
// source that forwards rows, once behind a wrapper that hides them, so
// every pushed fragment comes back as its XML export. Under both
// policies the two runs agree on every answer, completeness report and
// error text, and on the retries, breaker transitions, fetch outcomes
// and injected faults behind them.
func TestRowFetchUnderChaosMatchesXMLTwin(t *testing.T) {
	sched := chaos.Mix{Seed: 26, PUnavailable: 0.2, PMalformed: 0.15, PGarbage: 0.05, PHang: 0.1, MaxLatency: 400 * time.Millisecond}
	for _, policy := range []exec.Policy{exec.PolicyPartial, exec.PolicyFail} {
		run := func(hide bool) (string, *formCounter) {
			// Faults sleep, attempts time out and backoff waits on the one
			// fake clock, so the host's speed decides none of them.
			clock := chaos.NewFakeClock()
			reg := obs.NewRegistry()
			var (
				faulty  *chaos.Source
				counter *formCounter
			)
			e, _ := newBindEngine(t, []string{"7", "12", "3"}, func(s catalog.Source) catalog.Source {
				counter = &formCounter{RelationalSource: s.(*sources.RelationalSource)}
				faulty = chaos.Wrap(counter, sched).WithSleep(clock.Sleep)
				if hide {
					return hideRows{faulty}
				}
				return faulty
			}, Config{
				Metrics:           reg,
				Parallelism:       1,
				Resilience:        exec.Resilience{FetchTimeout: 20 * time.Millisecond, Retries: 1, RetryBase: 10 * time.Millisecond},
				Breakers:          exec.NewBreakerSet(3, time.Second, clock, reg),
				Clock:             clock,
				FailOnUnavailable: policy == exec.PolicyFail,
			})
			var sb strings.Builder
			for i := 0; i < 36; i++ {
				q := chaosQueries[i%len(chaosQueries)]
				res, err := e.Query(context.Background(), q)
				if err != nil {
					fmt.Fprintf(&sb, "%d error: %v\n", i, err)
				} else {
					fmt.Fprintf(&sb, "%d %v %+v\n", i, renderAll(res.Values), res.Completeness)
				}
				if i%6 == 5 {
					clock.Advance(time.Second) // let an open breaker half-open
				}
			}
			for _, to := range []string{"open", "half-open", "closed"} {
				fmt.Fprintf(&sb, "breaker to %s: %d\n", to, reg.Counter("nimble_breaker_transitions_total", "source", "crmdb", "to", to).Value())
			}
			for _, outcome := range []string{"ok", "unavailable", "error"} {
				fmt.Fprintf(&sb, "fetch %s: %d\n", outcome, reg.Counter("nimble_fetch_total", "source", "crmdb", "outcome", outcome).Value())
			}
			fmt.Fprintf(&sb, "retries: %d\n", reg.Counter("nimble_fetch_retries_total", "source", "crmdb").Value())
			calls, injected := faulty.Stats()
			fmt.Fprintf(&sb, "chaos: %d calls %v\n", calls, injected)
			return sb.String(), counter
		}
		rows, rowSrc := run(false)
		xml, xmlSrc := run(true)
		if rows != xml {
			t.Errorf("policy %v: rows:\n%s\nXML twin:\n%s", policy, rows, xml)
		}
		if rowSrc.rows.Load() == 0 || rowSrc.docs.Load() != 0 || xmlSrc.rows.Load() != 0 || xmlSrc.docs.Load() == 0 {
			t.Errorf("policy %v: forms taken: row run %d rows %d documents, twin %d rows %d documents",
				policy, rowSrc.rows.Load(), rowSrc.docs.Load(), xmlSrc.rows.Load(), xmlSrc.docs.Load())
		}
		for _, want := range []string{"malformed", "unavailable", "garbage", "hang", "slow", "breaker to open: ", "retries: "} {
			if !strings.Contains(rows, want) || strings.Contains(rows, want+"0\n") {
				t.Errorf("policy %v: the schedule never exercised %q:\n%s", policy, want, rows)
			}
		}
	}
}
