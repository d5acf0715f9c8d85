package core

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/sched"
)

// scrubTimes replaces wall-clock figures and the unfolder's process-
// global variable counter in a rendered EXPLAIN tree, so golden
// comparisons see only the deterministic structure and counts.
var (
	timeRE = regexp.MustCompile(`time=[0-9.]+ms`)
	unfRE  = regexp.MustCompile(`_u[0-9]+_`)
	// Leaf Match workers claim candidate elements atomically and join
	// workers claim slabs, so the per-worker row split is
	// scheduling-dependent even though the output is deterministic;
	// golden comparisons scrub the split.
	rowsPerWorkerRE = regexp.MustCompile(`rows/worker=\[[^\]]*\]`)
)

func scrubTimes(s string) string {
	return unfRE.ReplaceAllString(timeRE.ReplaceAllString(s, "time=?ms"), "_uN_")
}

func scrubWorkerRows(s string) string {
	return rowsPerWorkerRE.ReplaceAllString(s, "rows/worker=[?]")
}

// varEqualsVarRE matches the EXPLAIN text of a Select on a predicate of
// the exact form $x = $y.
var varEqualsVarRE = regexp.MustCompile(`\(\$\w+ = \$\w+\)`)

// assertJoinPredicatesAreKeys fails when a Select with a $x = $y
// predicate sits above a join: the planner must have handed that
// predicate to the join as a key pair.
func assertJoinPredicatesAreKeys(t *testing.T, root *algebra.ExplainNode) {
	t.Helper()
	root.Walk(func(n *algebra.ExplainNode) {
		if n.Op == "Select" && varEqualsVarRE.MatchString(n.Detail) && n.Find("HashJoin") != nil {
			t.Errorf("%s [%s] filters a join on a $x = $y predicate; it should be the join's key:\n%s", n.Op, n.Detail, root.Render())
		}
	})
}

const twoSourceJoinQL = `
	WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`

// plannedOps are the nodes a query's EXPLAIN tree may hold: the engine's
// own Query root and Fetch rows, and the operators the planner builds
// (TupleScan is a correlated subquery's outer binding).
var plannedOps = map[string]bool{
	"Query": true, "Fetch": true,
	"Match": true, "Singleton": true, "Select": true, "HashJoin": true, "FuncScan": true, "TupleScan": true,
}

// TestExplainHoldsOnlyPlannedOperators: over the queries of the
// equivalence families — the randomized views with and without ORDER-BY,
// the fixed workload's joins and correlated subqueries, and the view
// joins, the indexed inner's bind join included — every EXPLAIN node is
// one of plannedOps. A plan holding another kind fails here: algebra's
// children and describe must learn it first, or its inputs drop out of
// EXPLAIN and OperatorsRun unseen.
func TestExplainHoldsOnlyPlannedOperators(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string, e *Engine, q string) {
		t.Helper()
		res, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v\nquery: %s", name, err, q)
		}
		res.Explain.Walk(func(n *algebra.ExplainNode) {
			seen[n.Op] = true
			if !plannedOps[n.Op] {
				t.Errorf("%s: EXPLAIN holds a %s node\nquery: %s\n%s", name, n.Op, q, res.Explain.Render())
			}
		})
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, _ := randomDeployment(t, rng)
		check(fmt.Sprintf("seed %d", seed), e, randomQuery(rng, false))
	}
	e, _ := newTestEngine(t)
	for qi, q := range parallelWorkload {
		check(fmt.Sprintf("workload %d", qi), e, q)
	}
	for _, fam := range viewJoinFamilies {
		for seed := int64(0); seed < 4; seed++ {
			e, _ := fam.deploy(t, seed)
			for _, orderBy := range viewJoinQueries {
				check(fmt.Sprintf("%s seed %d%s", fam.name, seed, orderBy), e, viewJoinQuery(orderBy, fam.indexed))
			}
		}
	}
	// A correlated subquery's plan is not in its query's tree, so
	// TupleScan is never seen here; every other kind must be.
	for op := range plannedOps {
		if !seen[op] && op != "TupleScan" {
			t.Errorf("no query of the corpus planned a %s (weak test)", op)
		}
	}
}

func TestExplainGoldenTwoSourceJoin(t *testing.T) {
	slow := NewSlowLog(4, 0)
	active := NewActiveRegistry()
	// Parallelism 1 pins the serial plan shape on multi-core runners.
	e, _ := newTestEngineOver(t, testTickets, Config{Parallelism: 1, Slow: slow, Active: active})

	res, err := e.Query(context.Background(), twoSourceJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("values = %d, want 3", len(res.Values))
	}
	if res.Explain == nil {
		t.Fatal("Explain = nil (instrumentation must be on by default)")
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=3 in=3 time=?ms
├─ HashJoin [on $_uN_i=$i] out=3 in=6 time=?ms peak=3
│  ├─ FuncScan [pushdown crmdb: SELECT city, id, name FROM customers] out=3 time=?ms
│  └─ Match [fetch tickets <ticket> index ticket] out=3 in=1 time=?ms peak=2
│     └─ Singleton out=1 time=?ms
├─ Fetch [crmdb fetches=1 bytes=144] out=3 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	assertJoinPredicatesAreKeys(t, res.Explain)

	// The execution also lands in the slow log (threshold 0) with the
	// same rendered plan, and the active registry is drained.
	entries := slow.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow entries = %d", len(entries))
	}
	if entries[0].Plan != res.Explain.Render() {
		t.Error("slow entry plan differs from the result's explain tree")
	}
	if !entries[0].Complete || entries[0].Tuples != res.Stats.TuplesEmitted {
		t.Errorf("slow entry = %+v", entries[0])
	}
	if !strings.Contains(entries[0].Query, "<ticket>") {
		t.Errorf("slow entry query = %q", entries[0].Query)
	}
	if active.Len() != 0 {
		t.Errorf("active queries after completion = %d", active.Len())
	}
	if res.Stats.OperatorsRun <= 0 || res.Stats.DrainNanos <= 0 {
		t.Errorf("stats = %+v (drain accounting missing)", res.Stats)
	}
}

// TestExplainParallelPlanShape: at parallelism 2, over the wide
// deployment, the join predicate the unfolder left behind is the parallel
// join's key, a residual predicate that is not an equality of two
// variables stays the serial Select above it, the answer (and its
// EXPLAIN row counts) matches the serial plan exactly, and the join,
// its build side past the gate, reports per-worker stats.
func TestExplainParallelPlanShape(t *testing.T) {
	const ql = `
	WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
	      $w != $s
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`
	e := New(newWideTestEngine(t).Catalog(), Config{Parallelism: 2})

	res, err := e.Query(context.Background(), ql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != wideTickets {
		t.Fatalf("values = %d, want %d", len(res.Values), wideTickets)
	}
	got := scrubWorkerRows(scrubTimes(res.Explain.Render()))
	want := strings.TrimPrefix(`
Query [rewrites=1] out=2048 in=2048 time=?ms
├─ Select [($_uN_n != $s)] out=2048 in=2048 time=?ms
│  └─ HashJoin [workers=2 on $_uN_i=$i] out=2048 in=4096 time=?ms peak=2303 workers=2 rows/worker=[?]
│     ├─ FuncScan [pushdown crmdb: SELECT city, id, name FROM customers] out=2048 time=?ms
│     └─ Match [fetch tickets <ticket> index ticket] out=2048 in=1 time=?ms peak=2047
│        └─ Singleton out=1 time=?ms
├─ Fetch [crmdb fetches=1 bytes=98304] out=2048 time=?ms
└─ Fetch [tickets fetches=1 bytes=147480] out=6145 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	assertJoinPredicatesAreKeys(t, res.Explain)

	join := res.Explain.Find("HashJoin")
	if join == nil {
		t.Fatalf("no HashJoin node in:\n%s", res.Explain.Render())
	}
	if len(join.Workers) != 2 {
		t.Errorf("HashJoin worker stats = %+v, want 2 workers", join.Workers)
	}
	var rows int64
	for _, w := range join.Workers {
		rows += w.Rows
	}
	if rows != join.RowsOut {
		t.Errorf("worker rows sum = %d, want the join's %d", rows, join.RowsOut)
	}
	if res.Stats.ParallelWorkers == 0 {
		t.Error("Stats.ParallelWorkers = 0, want > 0")
	}

	// Same answer as the serial engine, byte for byte.
	serial := New(newWideTestEngine(t).Catalog(), Config{Parallelism: 1})
	sres, err := serial.Query(context.Background(), ql)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Document().String(), sres.Document().String(); got != want {
		t.Errorf("parallel result differs from serial:\n%s\nwant:\n%s", got, want)
	}
	if res.Stats.TuplesEmitted != sres.Stats.TuplesEmitted {
		t.Errorf("TuplesEmitted = %d, serial %d", res.Stats.TuplesEmitted, sres.Stats.TuplesEmitted)
	}
}

// TestExplainGoldenSchedulerBudgetWorkers: Parallelism 0 — "use the
// machine" — resolves through the shared scheduler's budget, not through
// GOMAXPROCS at query time. A small query's join holds its gate — three
// rows being far under every crossover — so it asks the scheduler for
// nothing and EXPLAIN shows the gate, no degree. Past the gate EXPLAIN
// shows the degree granted, whatever the host's core count: workers=2 at
// budget 2, and workers=1 want=2 for a batch query at budget 1, which
// leaves the one slot to interactive work. Every grant is back in the
// pool at completion and every answer is the serial twin's.
func TestExplainGoldenSchedulerBudgetWorkers(t *testing.T) {
	base, _ := newTestEngine(t)
	schd := sched.New(sched.Config{Budget: 2})
	// Parallelism 0, auto: the scheduler's budget.
	e, held := watchGates(New(base.Catalog(), Config{Scheduler: schd}))

	res, err := e.Query(context.Background(), twoSourceJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("values = %d, want 3", len(res.Values))
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=3 in=3 time=?ms
├─ HashJoin [serial n=3<2048 on $_uN_i=$i] out=3 in=6 time=?ms peak=3
│  ├─ FuncScan [pushdown crmdb: SELECT city, id, name FROM customers] out=3 time=?ms
│  └─ Match [fetch tickets <ticket> index ticket] out=3 in=1 time=?ms peak=2
│     └─ Singleton out=1 time=?ms
├─ Fetch [crmdb fetches=1 bytes=144] out=3 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	assertJoinPredicatesAreKeys(t, res.Explain)
	held.check(t, "budget 2", res)
	if snap := schd.Snap(); snap != (sched.Snapshot{Budget: 2, Free: 2}) {
		t.Errorf("scheduler after a query under every gate: %+v, want untouched", snap)
	}

	serial, _ := newTestEngineOver(t, testTickets, Config{Parallelism: 1})
	sres, err := serial.Query(context.Background(), twoSourceJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	if gotDoc, wantDoc := res.Document().String(), sres.Document().String(); gotDoc != wantDoc {
		t.Errorf("budget-granted result differs from serial:\n%s\nwant:\n%s", gotDoc, wantDoc)
	}

	// The wide deployment's join builds past the gate.
	const wideQL = `
	WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`
	wide := newWideTestEngine(t)
	oracle, _ := runAt(t, wide, wideQL, 1)
	for _, tc := range []struct {
		budget, par int
		class       string
		join        string
		spawned     int64
	}{
		{2, 0, "", "HashJoin [workers=2 on $_uN_i=$i]", 2},
		{1, 2, "batch", "HashJoin [workers=1 want=2 on $_uN_i=$i]", 0},
	} {
		schd := sched.New(sched.Config{Budget: tc.budget})
		e := New(wide.Catalog(), Config{Parallelism: tc.par, Scheduler: schd})
		res, err := e.QueryOpt(context.Background(), wideQL, QueryOptions{Class: tc.class})
		if err != nil {
			t.Fatal(err)
		}
		if got := scrubTimes(res.Explain.Render()); !strings.Contains(got, tc.join+" out=2048") {
			t.Errorf("budget %d: explain tree lacks %q:\n%s", tc.budget, tc.join, got)
		}
		if res.Stats.ParallelWorkers != tc.spawned {
			t.Errorf("budget %d: %d workers spawned, want %d", tc.budget, res.Stats.ParallelWorkers, tc.spawned)
		}
		if res.Document().String() != oracle {
			t.Errorf("budget %d: answer differs from the serial twin's", tc.budget)
		}
		if snap := schd.Snap(); snap.Granted != 0 || snap.Queries != 0 || snap.Free != tc.budget {
			t.Errorf("budget %d: scheduler not idle after the query: %+v", tc.budget, snap)
		}
	}
}

func TestSlowLogThresholdAndOrder(t *testing.T) {
	l := NewSlowLog(2, 5*time.Millisecond)
	l.Record(SlowEntry{Query: "fast", DurationMS: 1}, nil)
	l.Record(SlowEntry{Query: "slow", DurationMS: 50}, nil)
	l.Record(SlowEntry{Query: "slower", DurationMS: 80}, nil)
	l.Record(SlowEntry{Query: "mid", DurationMS: 20}, nil)
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Query != "slower" || entries[1].Query != "slow" {
		t.Errorf("order = %q, %q", entries[0].Query, entries[1].Query)
	}
}

// TestSlowLogRendersOnlyKeptPlans: Record renders a plan only for an
// entry it keeps. A query faster than every entry of a full log, one
// under the threshold and one offered to no log at all cost no render,
// and every entry a reader can see carries its plan.
func TestSlowLogRendersOnlyKeptPlans(t *testing.T) {
	renders := 0
	plan := func() string { renders++; return "the plan" }
	l := NewSlowLog(2, 5*time.Millisecond)
	l.Record(SlowEntry{Query: "slow", DurationMS: 50}, plan)
	l.Record(SlowEntry{Query: "slower", DurationMS: 80}, plan)
	if renders != 2 {
		t.Fatalf("renders = %d after two kept entries, want 2", renders)
	}
	l.Record(SlowEntry{Query: "fast, log full", DurationMS: 20}, plan)
	l.Record(SlowEntry{Query: "under the threshold", DurationMS: 1}, plan)
	var nilLog *SlowLog
	nilLog.Record(SlowEntry{Query: "no log", DurationMS: 100}, plan)
	if renders != 2 {
		t.Errorf("renders = %d after three dropped entries, want still 2", renders)
	}
	l.Record(SlowEntry{Query: "slowest", DurationMS: 90}, plan)
	if renders != 3 {
		t.Errorf("renders = %d after an entry that displaces one, want 3", renders)
	}
	for _, e := range l.Entries() {
		if e.Plan != "the plan" {
			t.Errorf("kept entry %q has plan %q", e.Query, e.Plan)
		}
	}
}

// TestSlowLogKeepsPlanOfFailedQuery: a query that fails while its plan
// runs lands in the slow log with the error and the plan as far as it
// ran, like one that succeeds (TestExplainGoldenTwoSourceJoin).
func TestSlowLogKeepsPlanOfFailedQuery(t *testing.T) {
	slow := NewSlowLog(4, 0)
	e, _ := newTestEngineOver(t, testTickets, Config{Slow: slow})
	_, err := e.Query(context.Background(), `
		WHERE <ticket><subject>$s</subject></ticket> IN "tickets", no_such_fn($s) = 1
		CONSTRUCT <r>$s</r>`)
	if err == nil {
		t.Fatal("query with an unknown function succeeded")
	}
	entries := slow.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow entries = %d, want 1", len(entries))
	}
	if entries[0].Error != err.Error() || entries[0].Complete {
		t.Errorf("slow entry = %+v, want the query's error %q", entries[0], err)
	}
	for _, want := range []string{"Query [rewrites=1]", "Select [", "Match [fetch tickets <ticket> index ticket]", "Fetch [tickets"} {
		if !strings.Contains(entries[0].Plan, want) {
			t.Errorf("failed query's plan lacks %q:\n%s", want, entries[0].Plan)
		}
	}
}

func TestActiveRegistrySnapshot(t *testing.T) {
	r := NewActiveRegistry()
	a := r.Register("WHERE ... CONSTRUCT ...")
	a.SetPhase("eval")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Phase != "eval" || snap[0].Query != "WHERE ... CONSTRUCT ..." {
		t.Fatalf("snapshot = %+v", snap)
	}
	r.Finish(a)
	if r.Len() != 0 {
		t.Errorf("len after finish = %d", r.Len())
	}
	// Nil receivers are inert.
	var nilReg *ActiveRegistry
	if aq := nilReg.Register("x"); aq != nil {
		t.Error("nil registry must return nil handle")
	}
	var nilAQ *ActiveQuery
	nilAQ.SetPhase("eval")
	var nilLog *SlowLog
	nilLog.Record(SlowEntry{DurationMS: 100}, nil)
}
