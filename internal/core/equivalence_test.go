package core

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sched"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// The unfolding equivalence property: for any query over a mediated
// schema, executing the unfolded rewrite against the sources must
// produce the same multiset of results as matching the original query
// against the fully materialized schema document. This is the soundness
// + completeness statement for the mediator's GAV rewriting — the core
// of the paper's system — checked over a randomized space of view
// shapes and query shapes.

// randomDeployment builds an engine with a random relational dataset and
// a random (but unfoldable) view over it.
func randomDeployment(t *testing.T, rng *rand.Rand) (*Engine, string) {
	t.Helper()
	db := rdb.NewDatabase("d")
	db.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, cat VARCHAR, val INT, label VARCHAR)`)
	cats := []string{"a", "b", "c"}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO items VALUES (%d, '%s', %d, 'L%d')`,
			i, cats[rng.Intn(len(cats))], rng.Intn(50), rng.Intn(8)))
	}
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("db", db)); err != nil {
		t.Fatal(err)
	}

	// Random view shape: a subset of columns under varying nesting.
	views := []string{
		`WHERE <item><id>$i</id><cat>$c</cat><val>$v</val></item> IN "db"
		 CONSTRUCT <rec><key>$i</key><group>$c</group><score>$v</score></rec>`,
		`WHERE <item><id>$i</id><cat>$c</cat><val>$v</val><label>$l</label></item> IN "db"
		 CONSTRUCT <rec key=$i><group>$c</group><info><score>$v</score><tag>$l</tag></info></rec>`,
		`WHERE <item><id>$i</id><val>$v</val></item> IN "db", $v > 10
		 CONSTRUCT <rec><key>$i</key><score>$v</score></rec>`,
	}
	view := views[rng.Intn(len(views))]
	if err := cat.DefineViewQL("recs", view); err != nil {
		t.Fatal(err)
	}
	return New(cat, Config{}), view
}

// randomQuery builds a query over the "recs" schema compatible with all
// view shapes above (key/score always exist; group/info may not bind).
func randomQuery(rng *rand.Rand, viewHasAttrKey bool) string {
	preds := []string{
		``,
		`, $s > 25`,
		`, $s >= 10, $s < 40`,
	}
	pred := preds[rng.Intn(len(preds))]
	key := `<key>$k</key>`
	if viewHasAttrKey {
		key = `` // the attr-key view has no <key> element; bind score only
	}
	order := ``
	if rng.Intn(2) == 0 {
		order = ` ORDER-BY $s DESCENDING, $k`
	}
	return `WHERE <rec>` + key + `<//score>$s</></rec> IN "recs"` + pred + `
		CONSTRUCT <out><k>$k</k><s>$s</s></out>` + order
}

// materializedAnswer answers the query by materializing the schema
// document into a static source and querying that — the semantic
// reference implementation.
func materializedAnswer(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	doc, comp, err := e.MaterializeSchema(context.Background(), "recs")
	if err != nil || !comp.Complete {
		t.Fatalf("materialize: %v %+v", err, comp)
	}
	refCat := catalog.New()
	if err := refCat.AddSource(catalog.NewStaticSource("recs", doc)); err != nil {
		t.Fatal(err)
	}
	ref := New(refCat, Config{})
	res, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	return renderAll(res.Values)
}

func renderAll(vals []xmldm.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

func TestUnfoldingEquivalence_Property(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, view := randomDeployment(t, rng)
		attrKey := rng.Intn(10) < 3 && view != "" && containsAttrKey(view)
		q := randomQuery(rng, attrKey)

		got, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: unfolded query failed: %v\nquery: %s", seed, err, q)
		}
		want := materializedAnswer(t, e, q)
		gotS := renderAll(got.Values)

		// Ordered comparison when the query orders; multiset otherwise.
		ordered := len(got.Values) > 0 && hasOrderBy(q)
		if !ordered {
			sort.Strings(gotS)
			sort.Strings(want)
		}
		if len(gotS) != len(want) {
			t.Fatalf("seed %d: %d vs %d results\nquery: %s\nview: %s\ngot: %v\nwant: %v",
				seed, len(gotS), len(want), q, view, head(gotS), head(want))
		}
		for i := range gotS {
			if gotS[i] != want[i] {
				t.Fatalf("seed %d: result %d differs\nquery: %s\nview: %s\ngot:  %s\nwant: %s",
					seed, i, q, view, gotS[i], want[i])
			}
		}
	}
}

// The serial/parallel differential property: for any query, a plan run
// at parallelism N must produce output byte-identical to the serial
// plan — same XML, same order, same completeness, same work counters.
// Serial execution is the oracle; the generator reuses the randomized
// deployment/query space of the unfolding property above.

// parallelDegrees are the degrees the differential suite exercises:
// serial oracle, minimal parallelism, and more workers than cores.
var parallelDegrees = []int{1, 2, 8}

// runAt executes q at the given degree of parallelism on an engine over
// e's catalog that shares e's scheduler and metrics, and returns the
// serialized result document plus the result itself.
func runAt(t *testing.T, e *Engine, q string, par int) (string, *Result) {
	t.Helper()
	res, err := New(e.Catalog(), Config{Parallelism: par, Scheduler: e.sched, Metrics: e.runner.Metrics}).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("parallelism %d: %v\nquery: %s", par, err, q)
	}
	return res.Document().String(), res
}

func TestParallelEquivalence_Differential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, view := randomDeployment(t, rng)
		q := randomQuery(rng, false)

		oracle, ores := runAt(t, e, q, 1)
		for _, par := range parallelDegrees[1:] {
			got, res := runAt(t, e, q, par)
			if got != oracle {
				t.Fatalf("seed %d parallelism %d: output differs from serial\nquery: %s\nview: %s\ngot:  %s\nwant: %s",
					seed, par, q, view, got, oracle)
			}
			if res.Completeness.Complete != ores.Completeness.Complete {
				t.Fatalf("seed %d parallelism %d: completeness %v vs serial %v",
					seed, par, res.Completeness.Complete, ores.Completeness.Complete)
			}
			if res.Stats.TuplesEmitted != ores.Stats.TuplesEmitted ||
				res.Stats.PatternMatches != ores.Stats.PatternMatches {
				t.Fatalf("seed %d parallelism %d: stats (tuples=%d matches=%d) vs serial (tuples=%d matches=%d)",
					seed, par, res.Stats.TuplesEmitted, res.Stats.PatternMatches,
					ores.Stats.TuplesEmitted, ores.Stats.PatternMatches)
			}
		}
	}
}

// parallelWorkload is the fixed multi-source workload over newTestEngine:
// joins across relational and XML sources, residual predicates, ORDER-BY,
// and the shapes that run a correlated subquery while the outer plan's
// parallel operators are live.
var parallelWorkload = []string{
	// Two-source join with a residual cross-source predicate: a Select
	// the mediator keeps above the join.
	`WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	       <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
	       $w != $s
	 CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`,
	// Relational-relational join with ORDER-BY (exercises the
	// parallel final sort) and a selection.
	`WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
	       <order><cust>$i</cust><total>$t</total></order> IN "salesdb",
	       $t > 100
	 CONSTRUCT <big><who>$n</who><total>$t</total></big> ORDER-BY $t DESCENDING`,
	// Mediated-schema scan with attribute pattern and predicate.
	`WHERE <ticket pri=$p><subject>$s</subject></ticket> IN "tickets", $p = "high"
	 CONSTRUCT <hot>$s</hot>`,
	// Three-way join across all sources.
	`WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where></cust> IN "customers",
	       <order><cust>$i</cust><total>$t</total></order> IN "salesdb",
	       <ticket><cust>$i</cust></ticket> IN "tickets"
	 CONSTRUCT <row><who>$w</who><city>$c</city><total>$t</total></row> ORDER-BY $w, $t`,
	// An aggregate-bearing Select above a join (its subquery correlates
	// on the tickets' $i): the predicate runs a correlated subquery per
	// joined row.
	`WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	       <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
	       count({ WHERE <order><cust>$i</cust></order> IN "salesdb" CONSTRUCT <o/> }) < 2
	 CONSTRUCT <quiet><who>$w</who><subject>$s</subject></quiet> ORDER-BY $w`,
	// A correlated subquery in CONSTRUCT above a join.
	`WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	       <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
	 CONSTRUCT <case who=$w><subject>$s</subject>
	     { WHERE <order><cust>$i</cust><total>$t</total></order> IN "salesdb" CONSTRUCT <amt>$t</amt> }
	 </case> ORDER-BY $w`,
}

// wideTickets is the size of the wide deployments: algebra's join
// crossover (joinParallelMin), so a join that builds the tickets or the
// customers uses a granted degree, and an answer row per ticket takes the
// final sort past its own crossover too.
const wideTickets = 2048

// newWideTestEngine is newTestEngine's deployment with wideTickets
// customers and one ticket each: a join of the two builds past the join's
// gate and probes more than one slab.
func newWideTestEngine(t testing.TB) *Engine { return newWideEngineOf(t, wideTickets) }

// newWideEngineOf is newTestEngine's deployment with n customers and one
// ticket each.
func newWideEngineOf(t testing.TB, n int) *Engine {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<tickets>")
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&sb, `<ticket pri="%s"><cust>%d</cust><subject>S%d</subject></ticket>`, []string{"high", "low"}[k%2], k, k%97)
	}
	sb.WriteString("</tickets>")
	e, crm := newTestEngineOver(t, sb.String(), Config{})
	for i := 4; i <= n; i++ {
		if err := crm.DB().Insert("customers", rdb.Row{xmldm.Int(int64(i)), xmldm.String(fmt.Sprintf("C%d", i)), xmldm.String(fmt.Sprintf("City%d", i%7))}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// wideWorkload runs over newWideTestEngine; in every query a join builds
// past its gate.
var wideWorkload = []string{
	parallelWorkload[0], // residual Select above the join
	parallelWorkload[3], // three-way join with ORDER-BY
	parallelWorkload[4], // a correlated subquery per probe row, evaluated while the join's pool runs
	parallelWorkload[5], // a correlated subquery in CONSTRUCT above the join
}

// heldGates watches the worker gauge and the goroutine count across runs
// that must hold every gate.
type heldGates struct {
	gauge      *obs.Gauge
	before     float64
	goroutines int
}

// watchGates returns an engine over e's catalog and scheduler whose
// metrics go to a fresh registry, and notes its worker gauge and the
// goroutine count before the runs.
func watchGates(e *Engine) (*Engine, *heldGates) {
	reg := obs.NewRegistry()
	g := reg.Gauge("nimble_parallel_workers")
	return New(e.Catalog(), Config{Scheduler: e.sched, Metrics: reg}),
		&heldGates{gauge: g, before: g.Value(), goroutines: runtime.NumGoroutine()}
}

// check fails unless res ran serially — no worker spawned — and the
// gauge and the goroutine count are back where they started.
func (h *heldGates) check(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.Stats.ParallelWorkers != 0 {
		t.Fatalf("%s: %d workers spawned under the gates", name, res.Stats.ParallelWorkers)
	}
	if d := h.gauge.Value() - h.before; d != 0 {
		t.Fatalf("%s: nimble_parallel_workers moved by %v", name, d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > h.goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > h.goroutines {
		t.Fatalf("%s: %d goroutines after the query, %d before", name, n, h.goroutines)
	}
}

// TestParallelEquivalence_Workload runs parallelWorkload through every
// parallel degree, where each operator holds its gate, and wideWorkload,
// where each query fans out.
func TestParallelEquivalence_Workload(t *testing.T) {
	small, _ := newTestEngine(t)
	wide := newWideTestEngine(t)
	for _, fam := range []struct {
		name    string
		e       *Engine
		queries []string
		fansOut bool
	}{{"workload", small, parallelWorkload, false}, {"wide workload", wide, wideWorkload, true}} {
		for qi, q := range fam.queries {
			oracle, ores := runAt(t, fam.e, q, 1)
			if len(ores.Values) == 0 {
				t.Fatalf("%s %d: oracle produced no rows (weak test)", fam.name, qi)
			}
			watched, held := watchGates(fam.e)
			for _, par := range parallelDegrees[1:] {
				got, res := runAt(t, watched, q, par)
				if got != oracle {
					t.Fatalf("%s %d parallelism %d: output differs from serial\ngot:  %s\nwant: %s",
						fam.name, qi, par, got, oracle)
				}
				if res.Completeness.Complete != ores.Completeness.Complete {
					t.Fatalf("%s %d parallelism %d: completeness differs", fam.name, qi, par)
				}
				if res.Stats.TuplesEmitted != ores.Stats.TuplesEmitted {
					t.Fatalf("%s %d parallelism %d: tuples %d vs serial %d",
						fam.name, qi, par, res.Stats.TuplesEmitted, ores.Stats.TuplesEmitted)
				}
				switch {
				case fam.fansOut && res.Stats.ParallelWorkers == 0:
					t.Fatalf("%s %d parallelism %d: no parallel workers spawned (plan not parallelized?)", fam.name, qi, par)
				case !fam.fansOut && par == 8:
					held.check(t, fmt.Sprintf("%s %d parallelism %d", fam.name, qi, par), res)
				}
			}
		}
	}
}

// explainShape renders what of an EXPLAIN tree the granted degree may not
// change: operator names, nesting, details and rows in and out. The
// degree itself (workers=N, want=M and a held gate's serial n=… in a
// detail; the per-worker rows live outside Detail), wall times and the
// unfolder's process-global variable counter are left out.
func explainShape(n *algebra.ExplainNode) string {
	var b strings.Builder
	var walk func(n *algebra.ExplainNode, depth int)
	walk = func(n *algebra.ExplainNode, depth int) {
		detail := strings.TrimSpace(workersDetailRE.ReplaceAllString(unfRE.ReplaceAllString(n.Detail, "_uN_"), ""))
		fmt.Fprintf(&b, "%s%s [%s] in=%d out=%d\n", strings.Repeat("  ", depth), n.Op, detail, n.RowsIn, n.RowsOut)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

var workersDetailRE = regexp.MustCompile(`(workers=[0-9]+|want=[0-9]+|serial n=[0-9]+<[0-9]+) ?`)

// TestExplainSameTreeAtEveryDegree: over the differential corpus — the
// randomized deployments, the fixed workload and the view-join families,
// small and wide — the EXPLAIN tree at granted degree 2 and 8 is the
// degree-1 tree: same operators, same nesting, same rows in and out of
// every node. Only workers=, want=, a held gate and rows/worker= say what
// degree ran.
func TestExplainSameTreeAtEveryDegree(t *testing.T) {
	check := func(name string, e *Engine, q string) {
		t.Helper()
		_, ores := runAt(t, e, q, 1)
		want := explainShape(ores.Explain)
		for _, par := range parallelDegrees[1:] {
			_, res := runAt(t, e, q, par)
			if got := explainShape(res.Explain); got != want {
				t.Fatalf("%s parallelism %d: EXPLAIN tree differs from the serial plan's\nquery: %s\ngot:\n%s\nwant:\n%s",
					name, par, q, got, want)
			}
		}
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
	for _, fam := range allViewJoinFamilies() {
		for seed := int64(0); seed < fam.seeds(4); seed++ {
			e, _ := fam.deploy(t, seed)
			for _, orderBy := range viewJoinQueries {
				check(fmt.Sprintf("%s seed %d%s", fam.name, seed, orderBy), e, viewJoinQuery(orderBy, fam.indexed))
			}
		}
	}
}

// The scheduler differential property: whatever degree the shared
// scheduler grants an operator — full, or downgraded as far as the floor
// — the answer must stay byte-identical to the serial oracle, and every
// grant must be back in the pool when the query completes. Serial
// execution (no scheduler involvement) is the oracle; budgets bracket the
// interesting regimes: 1 (everything downgraded), 2 (partial grants), 8
// (demand fully met).
func TestSchedulerGrantEquivalence_Differential(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, view := randomDeployment(t, rng)
			q := randomQuery(rng, false)
			oracle, ores := runAt(t, e, q, 1)

			schd := sched.New(sched.Config{Budget: budget})
			e = New(e.Catalog(), Config{Scheduler: schd})
			// 0 = auto (resolves to the budget), then explicit degrees
			// below, at, and above what the budget can grant.
			for _, desired := range []int{0, 2, 8} {
				got, res := runAt(t, e, q, desired)
				if got != oracle {
					t.Fatalf("budget %d seed %d desired %d: output differs from serial\nquery: %s\nview: %s\ngot:  %s\nwant: %s",
						budget, seed, desired, q, view, got, oracle)
				}
				if res.Stats.TuplesEmitted != ores.Stats.TuplesEmitted {
					t.Fatalf("budget %d seed %d desired %d: tuples %d vs serial %d",
						budget, seed, desired, res.Stats.TuplesEmitted, ores.Stats.TuplesEmitted)
				}
				snap := schd.Snap()
				if snap.Granted != 0 || snap.Queries != 0 {
					t.Fatalf("budget %d seed %d desired %d: scheduler not idle after query: %+v",
						budget, seed, desired, snap)
				}
				if snap.Free != snap.Budget {
					t.Fatalf("budget %d seed %d desired %d: %d of %d slots leaked",
						budget, seed, desired, snap.Budget-snap.Free, snap.Budget)
				}
			}
		}
	}
}

// Mixed classes over one shared scheduler: concurrent interactive and
// batch queries racing for a tiny budget must each still produce the
// serial answer, and the pool must balance to zero when they all finish.
func TestSchedulerGrantEquivalence_MixedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, _ := randomDeployment(t, rng)
	q := randomQuery(rng, false)
	oracle, _ := runAt(t, e, q, 1)

	schd := sched.New(sched.Config{Budget: 2})
	e = New(e.Catalog(), Config{Parallelism: 4, Scheduler: schd})
	classes := []string{"interactive", "batch", "", "batch", "interactive", "batch"}
	results := make([]string, len(classes))
	errs := make([]error, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		wg.Add(1)
		go func(i int, class string) {
			defer wg.Done()
			res, err := e.QueryOpt(context.Background(), q, QueryOptions{Class: class})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.Document().String()
		}(i, class)
	}
	wg.Wait()
	for i := range classes {
		if errs[i] != nil {
			t.Fatalf("query %d (%q): %v", i, classes[i], errs[i])
		}
		if results[i] != oracle {
			t.Fatalf("query %d (%q): output differs from serial\ngot:  %s\nwant: %s",
				i, classes[i], results[i], oracle)
		}
	}
	snap := schd.Snap()
	if snap.Granted != 0 || snap.Queries != 0 || snap.Free != snap.Budget {
		t.Fatalf("scheduler not idle after mixed-class run: %+v", snap)
	}
}

// The view-join equivalence: the benchmark's federated shape — a
// relational table reached through a mediated schema, joined to an XML
// feed on a variable the unfolder renames (so the join arrives as the
// predicate $i = $_uN_i) and on to a directory on a shared variable —
// over data chosen to sit on every edge of the join's equality: a ticket
// for customer "007" against code 7, duplicate join values on both sides
// of both joins, customers whose code is NULL or empty, tickets whose
// cust is empty or matches nobody.

// viewJoinDeployment builds that deployment from rng and returns the
// engine and its catalog (the reference reads the sources through it).
//
// indexed makes the relational side one a bind join takes: the join
// column carries an index and the table has bindMinRows more rows, so
// with the customers last in the query the join ships the tickets' keys
// instead of fetching the table. The same edge values now decide what
// the index is asked and what it finds — non-unique codes, "007" looking
// up '7', " 5 " looking up '5', an empty cust looking up the NULL codes,
// which the source reads as the empty text they export as — and on half
// the seeds 32 more tickets for customers nobody has bring more distinct
// keys than the join ships (a quarter of the table's rows), so it falls
// back to the whole table.
//
// tickets > 0 sets the ticket count; 0 draws 8–19.
func viewJoinDeployment(t *testing.T, rng *rand.Rand, indexed bool, tickets int) (*Engine, *catalog.Catalog) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (pk INT PRIMARY KEY, code VARCHAR, name VARCHAR)`)
	codes := []string{`'7'`, `'7'`, `NULL`, `''`, `'12'`, `'3'`, `'5'`, `'7'`, `NULL`, `''`}
	n := 6 + rng.Intn(10)
	if indexed {
		db.MustExec(`CREATE INDEX ON customers (code)`)
		n += 64
	}
	for pk := 0; pk < n; pk++ {
		code := codes[pk%len(codes)]
		if pk >= 4 {
			code = codes[rng.Intn(len(codes))]
		}
		db.MustExec(fmt.Sprintf(`INSERT INTO customers VALUES (%d, %s, 'N%d')`, pk, code, rng.Intn(4)))
	}
	custs := []string{"007", "7", "7", "", "12", "3", " 5 ", "99", "x", "7.0"}
	manyKeys := indexed && rng.Intn(2) == 0
	owners := []string{"s1", "s2", "s3", "s9"}
	n = 8 + rng.Intn(12)
	if tickets > 0 {
		n = tickets
	}
	ticketsDoc := "<tickets>"
	for k := 0; k < n; k++ {
		cust := custs[k%len(custs)]
		if k >= 4 {
			cust = custs[rng.Intn(len(custs))]
		}
		ticketsDoc += fmt.Sprintf(`<ticket pri="%s"><cust>%s</cust><subject>S%d</subject><owner>%s</owner></ticket>`,
			[]string{"high", "low"}[rng.Intn(2)], cust, rng.Intn(5), owners[rng.Intn(len(owners))])
	}
	for k := 0; manyKeys && k < 32; k++ {
		ticketsDoc += fmt.Sprintf(`<ticket pri="low"><cust>u%d</cust><subject>S0</subject><owner>s1</owner></ticket>`, k)
	}
	ticketsDoc += `<ticket pri="low"><subject>no customer</subject><owner>s1</owner></ticket></tickets>`
	ticketSrc, err := sources.NewXMLSource("tickets", ticketsDoc)
	if err != nil {
		t.Fatal(err)
	}
	staff := sources.NewDirectorySource("staff", "org")
	for _, path := range []string{"support/s1", "billing/s1", "field/s2", "support/s3"} {
		sid := path[len(path)-2:]
		if err := staff.Put(path, map[string]string{"sid": sid, "name": fmt.Sprintf("A%d", rng.Intn(3))}); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	for _, src := range []catalog.Source{sources.NewRelationalSource("crm", db), ticketSrc, staff} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineViewQL("custs", `
		WHERE <customer><code>$i</code><name>$n</name></customer> IN "crm"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who></cust>`); err != nil {
		t.Fatal(err)
	}
	return New(cat, Config{}), cat
}

// viewJoinQueries are the shape with and without ORDER-BY; the second
// and third leave ties for the stable sort to keep in join order.
var viewJoinQueries = []string{"", " ORDER-BY $w", " ORDER-BY $n DESCENDING, $s"}

// viewJoinQuery lists the customers first, or — custLast — last, which
// makes them the right side of the last join, where a bind join can take
// them.
func viewJoinQuery(orderBy string, custLast bool) string {
	patterns := []string{
		`<cust><cid>$i</cid><who>$w</who></cust> IN "custs"`,
		`<ticket pri=$p><cust>$i</cust><subject>$s</subject><owner>$o</owner></ticket> IN "tickets"`,
		`<*><sid>$o</sid><name>$n</name></> IN "staff"`,
	}
	if custLast {
		patterns = append(patterns[1:], patterns[0])
	}
	return `WHERE ` + strings.Join(patterns, ",\n      ") + `
	CONSTRUCT <case pri=$p><customer>$w</customer><subject>$s</subject><agent>$n</agent></case>` + orderBy
}

// viewJoinReference answers viewJoinQuery with no planner at all: every
// source fetched whole, nested loops in query order, the two join
// conditions evaluated as the predicates they are, a stable sort.
func viewJoinReference(t *testing.T, cat *catalog.Catalog, q string, custLast bool) []string {
	t.Helper()
	scan := func(source, pattern string) []algebra.Binding {
		src, err := cat.Source(source)
		if err != nil {
			t.Fatal(err)
		}
		doc, _, err := src.Fetch(context.Background(), catalog.Request{})
		if err != nil {
			t.Fatal(err)
		}
		pat := xmlql.MustParse(`WHERE ` + pattern + ` IN "s" CONSTRUCT <r/>`).Where[0].(*xmlql.PatternCond).Pattern
		bs, err := algebra.MatchPattern(&algebra.Context{}, doc, pat, xmldm.NewTuple())
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	customers := scan("crm", `<customer><code>$code</code><name>$w</name></customer>`)
	tickets := scan("tickets", `<ticket pri=$p><cust>$i</cust><subject>$s</subject><owner>$o</owner></ticket>`)
	staff := scan("staff", `<*><sid>$sid</sid><name>$n</name></>`)
	joins := xmlql.MustParse(`WHERE <a>$x</a> IN "s", $i = $code, $o = $sid CONSTRUCT <r/>`)
	query := xmlql.MustParse(q)

	type row struct {
		out  string
		keys []xmldm.Value
	}
	var rows []row
	ctx := &algebra.Context{}
	sides := [3][]algebra.Binding{customers, tickets, staff}
	if custLast {
		sides = [3][]algebra.Binding{tickets, staff, customers}
	}
	for _, b0 := range sides[0] {
		for _, b1 := range sides[1] {
		staff:
			for _, b2 := range sides[2] {
				b := xmldm.NewTuple(append(append(append([]xmldm.Field{}, b0.Fields()...), b1.Fields()...), b2.Fields()...)...)
				for _, cond := range joins.Where[1:] {
					v, err := algebra.Eval(ctx, cond.(*xmlql.PredicateCond).Expr, b)
					if err != nil {
						t.Fatal(err)
					}
					if !xmldm.Truthy(v) {
						continue staff
					}
				}
				n, err := algebra.BuildResult(ctx, query.Construct, b)
				if err != nil {
					t.Fatal(err)
				}
				r := row{out: n.String()}
				for _, k := range query.OrderBy {
					v, err := algebra.Eval(ctx, k.Expr, b)
					if err != nil {
						t.Fatal(err)
					}
					r.keys = append(r.keys, v)
				}
				rows = append(rows, r)
			}
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for k, key := range query.OrderBy {
			if c := xmldm.Compare(rows[a].keys[k], rows[b].keys[k]); c != 0 {
				return (c < 0) != key.Desc
			}
		}
		return false
	})
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.out
	}
	return out
}

// viewJoinMaterialized answers q with the schema materialized: the
// customers become a static document and the join on the user's $i is
// a natural join, no rewriting involved.
func viewJoinMaterialized(t *testing.T, e *Engine, cat *catalog.Catalog, q string) []string {
	t.Helper()
	doc, comp, err := e.MaterializeSchema(context.Background(), "custs")
	if err != nil || !comp.Complete {
		t.Fatalf("materialize: %v %+v", err, comp)
	}
	refCat := catalog.New()
	if err := refCat.AddSource(catalog.NewStaticSource("custs", doc)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tickets", "staff"} {
		src, err := cat.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := refCat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	res, err := New(refCat, Config{}).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("materialized query: %v", err)
	}
	return renderAll(res.Values)
}

// bindOutcomeRE finds what a bind join did in a rendered EXPLAIN tree.
var bindOutcomeRE = regexp.MustCompile(`bind=(fallback|[0-9]+/[0-9]+)`)

// viewJoinFamily is a deployment the view-join tests run over.
type viewJoinFamily struct {
	name    string
	indexed bool // the indexed relational inner side a bind join asks by key
	tickets int  // 0: the small family's 8–19
}

// viewJoinFamilies are the small deployments: the relational side fetched
// whole, and the indexed inner side. Every operator holds its gate.
var viewJoinFamilies = []viewJoinFamily{{"fetched whole", false, 0}, {"indexed inner", true, 0}}

// wideViewJoinFamilies are the fetched-whole family with wideTickets
// tickets: the join that builds them fans out. (The indexed family puts
// the tickets on the left, and its bound right side stays small.)
var wideViewJoinFamilies = []viewJoinFamily{{"wide fetched whole", false, wideTickets}}

func allViewJoinFamilies() []viewJoinFamily {
	return append(append([]viewJoinFamily(nil), viewJoinFamilies...), wideViewJoinFamilies...)
}

func (f viewJoinFamily) deploy(t *testing.T, seed int64) (*Engine, *catalog.Catalog) {
	return viewJoinDeployment(t, rand.New(rand.NewSource(seed)), f.indexed, f.tickets)
}

// seeds caps a test's seed count at one for a wide family.
func (f viewJoinFamily) seeds(n int64) int64 {
	if f.tickets > 0 {
		return 1
	}
	return n
}

// TestUnfoldingEquivalence_ViewJoin: the unfolded plan (two keyed hash
// joins) answers exactly as the nested-loop reference and as the
// materialized schema do, row for row and in the same order — NULL and
// empty join cells included: a NULL code exports as an empty element,
// which matches an empty <cust/> under the predicate and under the
// natural join alike, so there is no divergence to carve out. In the
// indexed-inner family the last join is a bind join — bound on some
// seeds, fallen back on others — and the reference, which has no planner
// and fetches every source whole, is what says it changed nothing.
func TestUnfoldingEquivalence_ViewJoin(t *testing.T) {
	for _, fam := range viewJoinFamilies {
		bound, fellBack := 0, 0
		for seed := int64(0); seed < 20; seed++ {
			e, cat := fam.deploy(t, seed)
			for _, orderBy := range viewJoinQueries {
				q := viewJoinQuery(orderBy, fam.indexed)
				res, err := e.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s seed %d: %v\nquery: %s", fam.name, seed, err, q)
				}
				if !res.Completeness.Complete {
					t.Fatalf("%s seed %d: incomplete answer %+v", fam.name, seed, res.Completeness)
				}
				got := renderAll(res.Values)
				if len(got) < 4 {
					t.Fatalf("%s seed %d: %d rows (weak test)", fam.name, seed, len(got))
				}
				for name, want := range map[string][]string{
					"nested-loop reference": viewJoinReference(t, cat, q, fam.indexed),
					"materialized schema":   viewJoinMaterialized(t, e, cat, q),
				} {
					if !slices.Equal(got, want) {
						t.Fatalf("%s seed %d%s: unfolded answer differs from the %s\ngot  %d: %v\nwant %d: %v\n%s",
							fam.name, seed, orderBy, name, len(got), got, len(want), want, res.Explain.Render())
					}
				}
				switch m := bindOutcomeRE.FindStringSubmatch(res.Explain.Render()); {
				case (m != nil) != fam.indexed:
					t.Fatalf("%s seed %d: bind join planned = %v\n%s", fam.name, seed, m != nil, res.Explain.Render())
				case m != nil && m[1] == "fallback":
					fellBack++
				case m != nil:
					bound++
				}
			}
		}
		if fam.indexed && (bound < 10 || fellBack < 10) {
			t.Fatalf("%s: %d joins bound, %d fell back: the family no longer exercises both", fam.name, bound, fellBack)
		}
	}
}

// TestParallelEquivalence_ViewJoin: the keyed joins at degrees 2 and 8
// are byte-identical to degree 1, completeness included — bind joins too;
// the small families hold every gate, the wide ones fan out.
func TestParallelEquivalence_ViewJoin(t *testing.T) {
	for _, fam := range allViewJoinFamilies() {
		for seed := int64(0); seed < fam.seeds(10); seed++ {
			e, _ := fam.deploy(t, seed)
			for _, orderBy := range viewJoinQueries {
				q := viewJoinQuery(orderBy, fam.indexed)
				oracle, ores := runAt(t, e, q, 1)
				watched, held := watchGates(e)
				for _, par := range parallelDegrees[1:] {
					got, res := runAt(t, watched, q, par)
					if got != oracle {
						t.Fatalf("%s seed %d%s parallelism %d: output differs from serial\ngot:  %s\nwant: %s", fam.name, seed, orderBy, par, got, oracle)
					}
					if res.Completeness.Complete != ores.Completeness.Complete || res.Stats.TuplesEmitted != ores.Stats.TuplesEmitted {
						t.Fatalf("%s seed %d%s parallelism %d: complete=%v tuples=%d vs serial complete=%v tuples=%d", fam.name, seed, orderBy, par,
							res.Completeness.Complete, res.Stats.TuplesEmitted, ores.Completeness.Complete, ores.Stats.TuplesEmitted)
					}
					switch {
					case fam.tickets > 0 && res.Stats.ParallelWorkers == 0:
						t.Fatalf("%s seed %d%s parallelism %d: no parallel workers spawned", fam.name, seed, orderBy, par)
					case fam.tickets == 0 && par == 8:
						held.check(t, fmt.Sprintf("%s seed %d%s parallelism %d", fam.name, seed, orderBy, par), res)
					}
				}
			}
		}
	}
}

// TestSchedulerGrantEquivalence_ViewJoin: whatever degree the scheduler
// grants the keyed joins, the answer is the serial one and the budget
// drains; in the wide families a granted degree fans out.
func TestSchedulerGrantEquivalence_ViewJoin(t *testing.T) {
	for _, fam := range allViewJoinFamilies() {
		fanned := 0
		for _, budget := range []int{1, 2, 8} {
			for seed := int64(0); seed < fam.seeds(4); seed++ {
				e, _ := fam.deploy(t, seed)
				q := viewJoinQuery(viewJoinQueries[seed%int64(len(viewJoinQueries))], fam.indexed)
				oracle, ores := runAt(t, e, q, 1)
				schd := sched.New(sched.Config{Budget: budget})
				e = New(e.Catalog(), Config{Scheduler: schd})
				for _, desired := range []int{0, 2, 8} {
					got, res := runAt(t, e, q, desired)
					if got != oracle || res.Completeness.Complete != ores.Completeness.Complete {
						t.Fatalf("%s budget %d seed %d desired %d: output differs from serial\ngot:  %s\nwant: %s", fam.name, budget, seed, desired, got, oracle)
					}
					if snap := schd.Snap(); snap.Granted != 0 || snap.Queries != 0 || snap.Free != snap.Budget {
						t.Fatalf("%s budget %d seed %d desired %d: scheduler not idle after query: %+v", fam.name, budget, seed, desired, snap)
					}
					if granted := strings.Contains(res.Explain.Render(), "workers="); granted && fam.tickets > 0 {
						if res.Stats.ParallelWorkers == 0 {
							t.Fatalf("%s budget %d seed %d desired %d: granted a degree, no worker spawned", fam.name, budget, seed, desired)
						}
						fanned++
					}
				}
			}
		}
		if fam.tickets > 0 && fanned == 0 {
			t.Fatalf("%s: no run was granted a degree", fam.name)
		}
	}
}

func containsAttrKey(view string) bool {
	return false // randomQuery always uses the element-key form; kept for clarity
}

func hasOrderBy(q string) bool {
	for i := 0; i+8 <= len(q); i++ {
		if q[i:i+8] == "ORDER-BY" {
			return true
		}
	}
	return false
}

func head(s []string) []string {
	if len(s) > 4 {
		return s[:4]
	}
	return s
}
