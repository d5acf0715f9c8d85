package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xmldm"
)

// lowerGates sets every operator's gate to n until the test ends, so a
// granted degree is used on inputs below its crossover.
func lowerGates(tb testing.TB, n int) {
	join, sort := joinGate, sortGate
	joinGate, sortGate = n, n
	tb.Cleanup(func() { joinGate, sortGate = join, sort })
}

// BenchmarkParallelCrossover times each operator that takes a degree at
// degree 1 and 2 over inputs from 32 to 65 536, with the gates lowered so
// degree 2 is used at every size: a HashJoin over n build and n probe
// rows, key domain n, one match per row, and StableSortIndices over n
// xmldm.String keys. The smallest n from which degree 2 stays ahead is
// the operator's crossover constant; DESIGN §12 records a run, with the
// rows of the leaf Match fan-out this sweep also timed before it was
// deleted for having no crossover.
//
//	go test -run '^$' -bench ParallelCrossover -cpu 2 -count 10 ./internal/algebra
func BenchmarkParallelCrossover(b *testing.B) {
	lowerGates(b, 0)
	for _, n := range []int{32, 128, 512, 2048, 8192, 32768, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		left := make([]Binding, n)
		right := make([]Binding, n)
		for i, p := range rng.Perm(n) {
			left[i] = xmldm.NewTuple().With("k", xmldm.String(fmt.Sprintf("k%d", i))).With("l", xmldm.Int(int64(i)))
			right[i] = xmldm.NewTuple().With("k", xmldm.String(fmt.Sprintf("k%d", p))).With("r", xmldm.Int(int64(i)))
		}
		keys := make([]xmldm.Value, n)
		for i := range keys {
			keys[i] = xmldm.String(fmt.Sprintf("%08d", rng.Intn(n)))
		}
		ops := []struct {
			name string
			want int
			run  func(degree int) int
		}{
			{"join", n, func(degree int) int {
				out, err := Drain(schedCtx(), &HashJoin{Left: &TupleScan{Tuples: left}, Right: &TupleScan{Tuples: right}, On: []string{"k"}, Workers: degree})
				if err != nil {
					b.Fatal(err)
				}
				return len(out)
			}},
			{"sort", n, func(degree int) int {
				return len(StableSortIndices(n, degree, func(i, j int) int { return xmldm.Compare(keys[i], keys[j]) }))
			}},
		}
		for _, op := range ops {
			for _, degree := range []int{1, 2} {
				b.Run(fmt.Sprintf("op=%s/n=%d/degree=%d", op.name, n, degree), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if got := op.run(degree); got != op.want {
							b.Fatalf("%d rows, want %d", got, op.want)
						}
					}
				})
			}
		}
	}
}
