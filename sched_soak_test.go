//go:build soak

package nimble

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSchedSoakMixedClasses is the extended scheduler soak behind the
// soak build tag (make sched-race runs the short storm; this one runs
// 64 concurrent queries per budget). A fixed seed draws each query's
// class, shape, and desired degree; a degree is a System's configuration,
// so each degree drawn runs on its own System of that budget. One shape,
// the wide join, builds past its gate and acquires workers, the others
// ask for none. Every answer must be byte-identical to a serial twin's,
// workers must have been spawned, and every budget must drain
// completely.
func TestSchedSoakMixedClasses(t *testing.T) {
	const queries = 64
	shapes := []string{
		`WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		 <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
		 CONSTRUCT <r><who>$w</who><subject>$s</subject></r> ORDER-BY $w`,
		`WHERE <cust><who>$w</who><where>$c</where></cust> IN "customers"
		 CONSTRUCT <loc><who>$w</who><city>$c</city></loc> ORDER-BY $c, $w`,
		`WHERE <ticket pri=$p><subject>$s</subject></ticket> IN "tickets", $p = "high"
		 CONSTRUCT <hot>$s</hot>`,
		wideStormQL,
	}

	// Serial twin: same deterministic deployment, degree pinned to 1.
	serial := buildStormSystem(t, obs.NewRegistry(), 1, 1)
	defer serial.Close()
	oracles := make([]string, len(shapes))
	for i, q := range shapes {
		res, err := serial.Cluster().QueryOpt(context.Background(), q, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = res.Document().String()
		if oracles[i] == "" {
			t.Fatalf("shape %d: empty oracle (weak test)", i)
		}
	}

	for _, budget := range []int{2, 8} {
		rng := rand.New(rand.NewSource(20260808))
		type job struct {
			shape   int
			class   string
			desired int
		}
		jobs := make([]job, queries)
		classes := []string{"interactive", "batch", ""}
		for i := range jobs {
			jobs[i] = job{
				shape:   rng.Intn(len(shapes)),
				class:   classes[rng.Intn(len(classes))],
				desired: rng.Intn(9), // 0 = auto through 8 = over-ask
			}
		}
		// One System per desired degree: its scheduler is shared by both
		// its engines, so the queries of that degree contend.
		systems := map[int]*System{}
		for _, j := range jobs {
			if systems[j.desired] == nil {
				systems[j.desired] = buildStormSystem(t, obs.NewRegistry(), j.desired, budget)
			}
		}

		var spawned atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan string, queries)
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				sys := systems[j.desired]
				e := sys.Engine(i % sys.Instances())
				res, err := e.QueryOpt(context.Background(), shapes[j.shape],
					core.QueryOptions{Class: j.class})
				if err != nil {
					errs <- "query " + shapes[j.shape] + ": " + err.Error()
					return
				}
				if got := res.Document().String(); got != oracles[j.shape] {
					errs <- "result differs from serial twin:\n" + got + "\nwant:\n" + oracles[j.shape]
				}
				spawned.Add(res.Stats.ParallelWorkers)
			}(i, j)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}

		if spawned.Load() == 0 {
			t.Fatalf("budget %d: no query spawned a worker: the soak never exercised a grant", budget)
		}
		for _, sys := range systems {
			assertIdle(t, sys)
			sys.Close()
		}
	}
}
