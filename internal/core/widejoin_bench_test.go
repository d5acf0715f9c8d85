package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// wideJoinRows sizes BenchmarkWideJoin's deployment: customers and
// tickets, one ticket each, so the join builds 16× past its gate
// (joinParallelMin) and the join-plus-Select does about 100 ms of serial
// mediator work (medians of 112 and 115 ms at degree 1 on 2 vCPU).
const wideJoinRows = 32768

// BenchmarkWideJoin measures what intra-query parallelism buys a join
// that needs it: wideWorkload's join-plus-Select and its ORDER-BY
// three-way join over wideJoinRows customers and tickets, run through
// Engine.QueryOpt at degree 1 and at a granted degree 2, by one caller
// and by GOMAXPROCS concurrent callers. Each degree has an engine of its
// own over one catalog, with a scheduler of the default budget
// (GOMAXPROCS extra slots), so concurrent degree-2 callers share its
// slots and are downgraded when it runs dry. DESIGN §12 records the
// decision it settled; run the degrees alternately, one sub-benchmark a
// process, when comparing them:
//
//	go test -run '^$' -bench 'WideJoin/q=0/degree=1/callers=one' -benchtime 20x ./internal/core
func BenchmarkWideJoin(b *testing.B) {
	base := newWideEngineOf(b, wideJoinRows)
	for qi, q := range wideWorkload[:2] {
		for _, degree := range []int{1, 2} {
			e := New(base.Catalog(), Config{
				Parallelism: degree,
				Scheduler:   sched.New(sched.Config{}),
				Metrics:     obs.NewRegistry(),
			})
			run := func() (*Result, error) {
				res, err := e.QueryOpt(context.Background(), q, QueryOptions{})
				if err == nil && len(res.Values) == 0 {
					err = errors.New("no rows")
				}
				return res, err
			}
			b.Run(fmt.Sprintf("q=%d/degree=%d/callers=one", qi, degree), func(b *testing.B) {
				// A lone degree-2 caller is always granted its worker;
				// the benchmark is void if the join ran serially.
				res, err := run()
				if err != nil {
					b.Fatal(err)
				}
				if degree > 1 && res.Stats.ParallelWorkers == 0 {
					b.Fatal("degree 2 ran serially: the join did not pass its gate")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("q=%d/degree=%d/callers=nproc", qi, degree), func(b *testing.B) {
				b.SetParallelism(1) // GOMAXPROCS callers
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "callers")
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := run(); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
