package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// The four workloads. Names are part of the contract in BENCHMARK.json;
// later issues refer to them.
const (
	wlPoint  = "point-pushdown"
	wlJoin   = "fed-join"
	wlExport = "bulk-export"
	wlCached = "cached-mix"
)

var workloadNames = []string{wlPoint, wlJoin, wlExport, wlCached}

// sizes fixes the data volume and query pool of one workload. Pools are
// finite so that every distinct query can be answered once on the serial
// twin during set-up; the stream draws pool indices from the seed.
type sizes struct {
	customers int // rows in crmdb.customers
	orders    int // rows in crmdb.orders (read only by cached-mix misses)
	tickets   int // <ticket> elements in the XML source
	staff     int // entries in the directory source
	pool      int // distinct queries
	stream    int // stream length (pool indices); clients wrap around
}

// workloadSizes records why each workload is the size it is.
//
//   - point-pushdown: 2000 indexed customers, answers of 5-35 rows, so the
//     per-query fixed cost of the front end, planner and instrumentation
//     dominates and the algebra has almost nothing to do.
//   - fed-join: 600 customers x 300 tickets x 24 staff puts the seed's
//     median at 20-80 ms, nearly all of it in Match/HashJoin/Select,
//     construct and sort.
//   - bulk-export: every one of 2000 customers through a two-level view,
//     about 300 KB of XML per answer; conversion, construct and serialize.
//   - cached-mix: 40 Zipf-popular city queries (cache hits) plus distinct
//     order-range queries that always miss and go to a 2 ms remote source.
var workloadSizes = map[string]sizes{
	wlPoint:  {customers: 2000, orders: 0, tickets: 0, staff: 0, pool: 512, stream: 1 << 15},
	wlJoin:   {customers: 600, orders: 0, tickets: 300, staff: 24, pool: 24, stream: 1 << 12},
	wlExport: {customers: 2000, orders: 0, tickets: 0, staff: 0, pool: 6, stream: 1 << 12},
	wlCached: {customers: 500, orders: 4000, tickets: 0, staff: 0, pool: 40 + 2048, stream: 1 << 16},
}

var benchCities = []string{
	"Seattle", "Portland", "San Francisco", "New York", "Boston", "Chicago",
	"Austin", "Denver", "Atlanta", "Miami", "Dallas", "Houston", "Phoenix",
	"Detroit", "Nashville", "Memphis", "Baltimore", "Milwaukee", "Tucson",
	"Fresno", "Sacramento", "Omaha", "Raleigh", "Oakland", "Tulsa",
	"Cleveland", "Tampa", "Honolulu", "Anaheim", "Lexington", "Stockton",
	"Cincinnati", "Pittsburgh", "Anchorage", "Toledo", "Newark", "Plano",
	"Lincoln", "Buffalo", "Orlando",
}

var benchTiers = []string{"gold", "silver", "bronze"}

var benchFirst = []string{
	"Robert", "William", "Richard", "James", "Michael", "Thomas", "Elizabeth",
	"Margaret", "Katherine", "Susan", "Edward", "Charles", "Grace", "Ada",
	"Alan", "Barbara", "Donald", "John", "Leslie", "Tony",
}

var benchLast = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Miller", "Davis",
	"Wilson", "Anderson", "Taylor", "Moore", "Jackson", "Martin", "Lee",
	"Thompson", "White", "Lopez", "Hill", "Clark", "Lewis", "Young", "Hall",
}

var benchSubjects = []string{
	"cannot log in", "invoice mismatch", "late delivery", "upgrade request",
	"data export", "password reset", "api quota", "billing address",
}

type customer struct {
	id   int
	name string
	city string
	tier string
}

type order struct {
	oid    int
	cust   int
	total  float64
	status string
}

type ticket struct {
	cust    int
	pri     string
	subject string
	owner   string
}

type staffer struct {
	sid  string
	name string
	team string
}

// dataset is everything a deployment is loaded with, plus the query pool
// and stream. It is a pure function of (workload, seed).
type dataset struct {
	workload  string
	customers []customer
	orders    []order
	tickets   []ticket
	staff     []staffer
	pool      []string // distinct XML-QL queries
	stream    []int    // indices into pool, in issue order
}

// generate builds the dataset for a workload from the seed alone.
func generate(workload string, seed int64) (*dataset, error) {
	sz, ok := workloadSizes[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	// Each part draws from its own stream so resizing one part does not
	// reshuffle the others.
	rng := func(part int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + part)) }
	d := &dataset{workload: workload}

	r := rng(1)
	for i := 0; i < sz.customers; i++ {
		d.customers = append(d.customers, customer{
			id:   i,
			name: benchFirst[r.Intn(len(benchFirst))] + " " + benchLast[r.Intn(len(benchLast))],
			city: benchCities[r.Intn(len(benchCities))],
			tier: benchTiers[r.Intn(len(benchTiers))],
		})
	}
	r = rng(2)
	statuses := []string{"open", "shipped", "cancelled"}
	for i := 0; i < sz.orders; i++ {
		d.orders = append(d.orders, order{
			oid:    i,
			cust:   r.Intn(sz.customers),
			total:  math.Round(r.Float64()*50000) / 100,
			status: statuses[r.Intn(len(statuses))],
		})
	}
	r = rng(3)
	for i := 0; i < sz.staff; i++ {
		d.staff = append(d.staff, staffer{
			sid:  fmt.Sprintf("s%02d", i),
			name: benchFirst[r.Intn(len(benchFirst))] + " " + benchLast[r.Intn(len(benchLast))],
			team: []string{"support", "billing", "field"}[i%3],
		})
	}
	r = rng(4)
	pris := []string{"high", "normal", "low"}
	for i := 0; i < sz.tickets; i++ {
		d.tickets = append(d.tickets, ticket{
			cust:    r.Intn(sz.customers),
			pri:     pris[r.Intn(len(pris))],
			subject: benchSubjects[r.Intn(len(benchSubjects))],
			owner:   d.staff[r.Intn(len(d.staff))].sid,
		})
	}

	r = rng(5)
	switch workload {
	case wlPoint:
		d.pool = distinct(sz.pool, func() string { return pointQuery(r, d.customers) })
		d.stream = uniformStream(r, sz.stream, len(d.pool))
	case wlJoin:
		d.pool = joinQueries(sz.pool)
		d.stream = uniformStream(r, sz.stream, len(d.pool))
	case wlExport:
		d.pool = exportQueries(sz.pool)
		d.stream = uniformStream(r, sz.stream, len(d.pool))
	case wlCached:
		hot := make([]string, len(benchCities))
		for i, c := range benchCities {
			hot[i] = cityQuery(c)
		}
		cold := distinct(sz.pool-len(hot), func() string { return orderRangeQuery(r, sz.orders) })
		d.pool = append(hot, cold...)
		d.stream = cachedMixStream(r, sz.stream, len(hot), len(cold))
	}
	return d, nil
}

// distinct calls gen until it has produced n different strings.
func distinct(n int, gen func() string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		q := gen()
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func uniformStream(r *rand.Rand, n, pool int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = r.Intn(pool)
	}
	return s
}

// cachedMixStream blends Zipf(0.9)-popular hot queries with cold queries
// that are each used once before any repeats: one request in ten is cold.
func cachedMixStream(r *rand.Rand, n, hot, cold int) []int {
	cdf := zipfCDF(hot, 0.9)
	perm := r.Perm(hot) // popularity rank -> city, so hot cities differ by seed
	s := make([]int, n)
	nextCold := 0
	for i := range s {
		if r.Intn(10) == 0 {
			s[i] = hot + nextCold%cold
			nextCold++
			continue
		}
		u := r.Float64()
		rank := 0
		for rank < hot-1 && cdf[rank] < u {
			rank++
		}
		s[i] = perm[rank]
	}
	return s
}

func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// pointQuery is one selective query over the customers schema: the city
// and tier of a randomly drawn customer and an id range covering 20-100 %
// of the ids that contains that customer, so no answer is empty. All
// predicates can be pushed into crmdb, whose city column is indexed.
func pointQuery(r *rand.Rand, customers []customer) string {
	n := len(customers)
	anchor := customers[r.Intn(n)]
	width := n/5 + r.Intn(n*4/5+1)
	lo := anchor.id - r.Intn(width)
	if lo < 0 {
		lo = 0
	}
	return fmt.Sprintf(`WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where><tier>$t</tier></cust> IN "customers", `+
		`$c = "%s", $t = "%s", $i >= %d, $i < %d `+
		`CONSTRUCT <hit><id>$i</id><name>$w</name></hit>`, anchor.city, anchor.tier, lo, lo+width)
}

// joinQueries are customers (relational, through the mediated schema)
// joined to tickets (an XML document matched in the mediator) joined to
// staff (a directory), ordered by customer name. The variants differ in
// ticket priority and staff team so answers differ; every variant joins
// the full customer table.
func joinQueries(n int) []string {
	pris := []string{"high", "normal", "low"}
	teams := []string{"support", "billing", "field"}
	orders := []string{"$w", "$w DESC", "$s", "$n"}
	var out []string
	for _, o := range orders {
		for _, p := range pris {
			for _, t := range teams {
				out = append(out, fmt.Sprintf(`WHERE <cust><cid>$i</cid><who>$w</who><where>$c</where></cust> IN "customers", `+
					`<ticket pri="%s"><cust>$i</cust><subject>$s</subject><owner>$o</owner></ticket> IN "tickets", `+
					`<*><sid>$o</sid><name>$n</name><team>"%s"</team></> IN "staff" `+
					`CONSTRUCT <case><customer>$w</customer><city>$c</city><subject>$s</subject><agent>$n</agent></case> `+
					`ORDER-BY %s`, p, t, o))
			}
		}
	}
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// exportQueries read every element of the two-level "directory" view
// (defined over "customers", which is defined over crmdb) and construct a
// nested element per customer. The variants differ only in the root tag,
// so all do the same work.
func exportQueries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`WHERE <entry><key>$i</key><person><name>$w</name><tier>$t</tier></person><place>$c</place></entry> IN "directory" `+
			`CONSTRUCT <row%d id=$i><contact><name>$w</name><city>$c</city></contact><status><tier>$t</tier></status></row%d>`, i, i)
	}
	return out
}

// cityQuery is the shared-work query of cached-mix: all customers of one
// city, answered from the materialized customers view on a miss.
func cityQuery(city string) string {
	return fmt.Sprintf(`WHERE <cust><who>$w</who><where>$p</where><tier>$t</tier></cust> IN "customers", $p = "%s" `+
		`CONSTRUCT <hit><name>$w</name><tier>$t</tier></hit>`, city)
}

// orderRangeQuery is the cache miss of cached-mix: a narrow range of order
// ids over the "sales" schema, which is not materialized, so the fragment
// is pushed to crmdb across the simulated network.
func orderRangeQuery(r *rand.Rand, orders int) string {
	width := 10 + r.Intn(40)
	lo := r.Intn(orders - width)
	return fmt.Sprintf(`WHERE <sale><oid>$o</oid><buyer>$b</buyer><amount>$a</amount></sale> IN "sales", $o >= %d, $o < %d `+
		`CONSTRUCT <sale id=$o><buyer>$b</buyer><amount>$a</amount></sale>`, lo, lo+width)
}

// digest fingerprints the generated data and stream, for the run record
// and the determinism test.
func (d *dataset) digest() string {
	h := sha256.New()
	fmt.Fprintln(h, d.workload)
	for _, c := range d.customers {
		fmt.Fprintln(h, c.id, c.name, c.city, c.tier)
	}
	for _, o := range d.orders {
		fmt.Fprintln(h, o.oid, o.cust, o.total, o.status)
	}
	for _, t := range d.tickets {
		fmt.Fprintln(h, t.cust, t.pri, t.subject, t.owner)
	}
	for _, s := range d.staff {
		fmt.Fprintln(h, s.sid, s.name, s.team)
	}
	for _, q := range d.pool {
		fmt.Fprintln(h, q)
	}
	fmt.Fprintln(h, d.stream)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
