package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/sources"
)

// TestSmallQueriesHoldNoWorkerSlots: a query under every gate holds no
// worker slot however long it runs, so a wide join arriving beside such
// queries is granted the workers it asks for. Three small queries stall
// on a hanging source with the budget at 2: while they are in flight the
// scheduler holds no grant at all, and the wide query's join is granted
// workers=2 and spawns both.
func TestSmallQueriesHoldNoWorkerSlots(t *testing.T) {
	schd := sched.New(sched.Config{Budget: 2})
	e := New(newWideTestEngine(t).Catalog(), Config{Scheduler: schd})
	src, err := sources.NewXMLSource("stalled", `<s><item>a</item><item>b</item></s>`)
	if err != nil {
		t.Fatal(err)
	}
	stalled := chaos.Wrap(src, chaos.Script{Then: chaos.Fault{Kind: chaos.Hang}})
	if err := e.Catalog().AddSource(stalled); err != nil {
		t.Fatal(err)
	}

	const small = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < small; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Query(ctx, `WHERE <item>$x</item> IN "stalled" CONSTRUCT <r>$x</r> ORDER-BY $x`)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if calls, _ := stalled.Stats(); calls == small {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the small queries never reached the stalled source")
		}
	}
	if snap := schd.Snap(); snap.Queries != 0 || snap.Granted != 0 {
		t.Fatalf("%d small queries in flight hold grants: %+v", small, snap)
	}

	res, err := e.Query(context.Background(), `
		WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
		CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`)
	if err != nil {
		t.Fatal(err)
	}
	join := res.Explain.Find("HashJoin")
	if join == nil || !strings.HasPrefix(join.Detail, "workers=2 on ") || res.Stats.ParallelWorkers != 2 {
		t.Fatalf("wide join beside %d small queries: %d workers spawned\n%s", small, res.Stats.ParallelWorkers, res.Explain.Render())
	}

	cancel()
	wg.Wait()
	if snap := schd.Snap(); snap.Granted != 0 || snap.Queries != 0 || snap.Free != 2 {
		t.Fatalf("scheduler not idle afterwards: %+v", snap)
	}
}
