package nimble

// Scheduler storm: mixed-class queries race for a shared worker budget
// across the cluster's engines while chaos keeps one source dead and
// another slow, and some callers abandon their queries mid-flight. The
// wide join (wideStormQL) builds past its gate, so its join and sort
// acquire workers while the small shapes, under every gate, ask for none.
// A sampler goroutine asserts the budget invariants at every instant —
// granted never exceeds the budget, accounting always balances — and the
// end state must drain to zero: no granted slots, no leaked parallel
// workers, even on the cancellation paths. Healthy answers must stay
// byte-identical to a serial oracle at every budget. CI runs this under
// -race (the sched-race step).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestSchedStormBudgets(t *testing.T) {
	const healthyQL = `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		<ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
		CONSTRUCT <r><who>$w</who><subject>$s</subject></r> ORDER-BY $w`
	const slowQL = `WHERE <item>$x</item> IN "slowsrc" CONSTRUCT <r>$x</r>`
	const deadQL = `WHERE <item>$x</item> IN "dead" CONSTRUCT <r>$x</r>`

	// Serial oracle, computed once: the deterministic dataset is the
	// same at every budget.
	serial := buildStormSystem(t, obs.NewRegistry(), 1, 1)
	defer serial.Close()
	ores, err := serial.Cluster().QueryOpt(context.Background(), healthyQL, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := ores.Document().String()
	if !strings.Contains(oracle, "<subject>") {
		t.Fatalf("oracle unexpected: %s", oracle)
	}
	wres, err := serial.Cluster().QueryOpt(context.Background(), wideStormQL, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wideOracle := wres.Document().String()

	for _, budget := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			sys := buildStormSystem(t, obs.NewRegistry(), 4, budget)
			defer sys.Close()
			schd := sys.Scheduler()
			if schd.Budget() != budget {
				t.Fatalf("scheduler budget = %d, want %d", schd.Budget(), budget)
			}

			// Invariant sampler: at every sampled instant the grant
			// accounting must balance against the configured budget.
			stop := make(chan struct{})
			var samples atomic.Int64
			var samplerWG sync.WaitGroup
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := schd.Snap()
					if snap.Granted < 0 || snap.Granted > snap.Budget {
						t.Errorf("granted = %d outside [0,%d]", snap.Granted, snap.Budget)
					}
					if snap.Granted+snap.Free != snap.Budget {
						t.Errorf("accounting broken: granted %d + free %d != budget %d",
							snap.Granted, snap.Free, snap.Budget)
					}
					samples.Add(1)
				}
			}()

			const (
				goroutines = 8
				iterations = 10
			)
			classes := []string{"interactive", "batch", ""}
			var spawned atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan string, goroutines*iterations)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iterations; i++ {
						class := classes[(g+i)%len(classes)]
						switch (g + i) % 5 {
						case 0, 1:
							res, err := sys.Cluster().QueryOpt(context.Background(),
								healthyQL, core.QueryOptions{Class: class})
							if err != nil {
								errs <- "healthy query: " + err.Error()
								continue
							}
							if got := res.Document().String(); got != oracle {
								errs <- "healthy query result differs from oracle (lost or duplicated tuples):\n" + got
							}
						case 2:
							res, err := sys.Cluster().QueryOpt(context.Background(),
								wideStormQL, core.QueryOptions{Class: class})
							if err != nil {
								errs <- "wide query: " + err.Error()
								continue
							}
							if res.Document().String() != wideOracle {
								errs <- "wide query result differs from oracle (lost or duplicated tuples)"
							}
							spawned.Add(res.Stats.ParallelWorkers)
						case 3:
							// Abandoned mid-flight: the caller walks away
							// while the slow source stalls the plan, or while
							// the wide join probes. Every grant and every
							// spawned worker must still be returned — this is
							// the cancel-path audit for both
							// nimble_sched_granted and nimble_parallel_workers.
							q := slowQL
							if i%2 == 1 {
								q = wideStormQL
							}
							ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
							_, _ = sys.Cluster().QueryOpt(ctx, q, core.QueryOptions{Class: class})
							cancel()
						case 4:
							// Fault traffic: the dead source yields flagged
							// partial answers, never a torn scheduler.
							if _, err := sys.Cluster().QueryOpt(context.Background(),
								deadQL, core.QueryOptions{Class: class}); err != nil {
								errs <- "dead-source query failed hard: " + err.Error()
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			samplerWG.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if samples.Load() == 0 {
				t.Fatal("sampler never ran (weak test)")
			}
			if budget >= 2 && spawned.Load() == 0 {
				t.Fatal("no wide join spawned a worker: the storm never exercised a grant")
			}

			// Everything drained, including on the cancelled queries.
			assertIdle(t, sys)
		})
	}
}
