package nimble

// Parallel-execution storm: concurrent parallel queries hammer the
// cluster front end while chaos keeps one source dead and another slow.
// Every healthy response must be byte-identical to a serial oracle
// computed up front — the no-lost-no-duplicated-tuples property of the
// parallel operators under scheduler pressure — and the system must be
// idle afterwards (assertIdle: no leaked slot, grant or worker).
// CI runs this under -race (the parallel-race step).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/workload"
)

// wideRows is the size of each side of wideStormQL's join: the build
// side reaches algebra's 2048-row join gate, so the join asks the
// scheduler for workers, and its answer takes the final sort past the
// sort's gate too. The other storm shapes hold every gate.
const wideRows = 2048

const wideStormQL = `WHERE <a><k>$k</k><x>$x</x></a> IN "wideA", <b><k>$k</k><y>$y</y></b> IN "wideB"
	CONSTRUCT <r><x>$x</x><y>$y</y></r> ORDER-BY $y`

func buildStormSystem(t *testing.T, reg *obs.Registry, parallelism, budget int) *System {
	t.Helper()
	sys := New(Config{
		Instances:    2,
		Parallelism:  parallelism,
		WorkerBudget: budget,
		Metrics:      reg,
		TraceBuffer:  -1,
		FetchRetries: 1,
		RetryBackoff: time.Millisecond,
		FetchTimeout: 2 * time.Second,
	})
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", 40, 2, 11)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("tickets", `<tickets>
		<ticket pri="high"><cust>1</cust><subject>Engine overheats</subject></ticket>
		<ticket pri="low"><cust>2</cust><subject>Manual unclear</subject></ticket>
		<ticket pri="high"><cust>3</cust><subject>Crash on start</subject></ticket>
		<ticket pri="low"><cust>4</cust><subject>Wrong invoice</subject></ticket>
	</tickets>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("dead", `<dead><item>alpha</item></dead>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("slowsrc", `<slow><item>beta</item><item>gamma</item></slow>`); err != nil {
		t.Fatal(err)
	}
	var wideA, wideB strings.Builder
	for k := 0; k < wideRows; k++ {
		fmt.Fprintf(&wideA, "<a><k>%d</k><x>X%d</x></a>", k, k%13)
		fmt.Fprintf(&wideB, "<b><k>%d</k><y>Y%d</y></b>", k, k%11)
	}
	if err := sys.AddXMLSource("wideA", "<as>"+wideA.String()+"</as>"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("wideB", "<bs>"+wideB.String()+"</bs>"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where></cust>`); err != nil {
		t.Fatal(err)
	}
	sys.WrapSources(func(src Source) Source {
		switch src.Name() {
		case "dead":
			return chaos.Wrap(src, chaos.Script{Then: chaos.Fault{Kind: chaos.Unavailable}})
		case "slowsrc":
			return chaos.Wrap(src, chaos.Script{Then: chaos.Fault{Kind: chaos.Slow, Latency: 2 * time.Millisecond}})
		}
		return nil
	})
	return sys
}

func TestParallelStormUnderChaos(t *testing.T) {
	sys := buildStormSystem(t, obs.NewRegistry(), 4, 0)
	defer sys.Close()
	ts := httptest.NewServer(sys.HTTPHandler("admin"))
	defer ts.Close()

	// The oracle comes from a serial twin (same deterministic dataset,
	// parallelism 1): the storm's parallel answers must match it byte
	// for byte.
	serial := buildStormSystem(t, obs.NewRegistry(), 1, 0)
	defer serial.Close()
	tsSerial := httptest.NewServer(serial.HTTPHandler("admin"))
	defer tsSerial.Close()

	postTo := func(base, q string) (int, string) {
		resp, err := http.Post(base+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	post := func(q string) (int, string) { return postTo(ts.URL, q) }

	const healthyQL = `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		<ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
		CONSTRUCT <r><who>$w</who><subject>$s</subject></r> ORDER-BY $w`
	const slowQL = `WHERE <item>$x</item> IN "slowsrc" CONSTRUCT <r>$x</r>`
	const deadQL = `WHERE <item>$x</item> IN "dead" CONSTRUCT <r>$x</r>`

	// Serial oracles for the healthy joins, computed before the storm.
	code, oracle := postTo(tsSerial.URL, healthyQL)
	if code != 200 {
		t.Fatalf("oracle query: %d %s", code, oracle)
	}
	if !strings.Contains(oracle, "<subject>") || strings.Contains(oracle, `complete="false"`) {
		t.Fatalf("oracle unexpected: %s", oracle)
	}
	code, wideOracle := postTo(tsSerial.URL, wideStormQL)
	if code != 200 || strings.Count(wideOracle, "<r>") != wideRows {
		t.Fatalf("wide oracle query: %d, %d rows", code, strings.Count(wideOracle, "<r>"))
	}

	const (
		goroutines = 8
		iterations = 12
	)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iterations)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					code, body := post(healthyQL)
					if code != 200 {
						errs <- "healthy query status " + body
						continue
					}
					if body != oracle {
						errs <- "healthy query result differs from oracle (lost or duplicated tuples):\n" + body
					}
				case 2:
					// Past the gates: the join and the sort take workers.
					if code, body := post(wideStormQL); code != 200 || body != wideOracle {
						errs <- fmt.Sprintf("wide query status %d, result differs from oracle (lost or duplicated tuples)", code)
					}
				case 3:
					// Fault traffic: a dead source yields flagged partial
					// results; a slow one just takes longer. Either way the
					// request must complete without tearing the system.
					var code int
					if i%2 == 0 {
						code, _ = post(deadQL)
					} else {
						code, _ = post(slowQL)
					}
					if code != 200 {
						errs <- "chaos query failed hard"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	assertIdle(t, sys)
}
