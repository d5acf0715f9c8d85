package algebra

import "testing"

// BenchmarkInstrumentedNext drains a FuncScan of 2000 rows bare and
// wrapped by Instrument, the shim every query's plan runs under. The
// difference per row is what operator timing costs each Next: two clock
// reads and the buffered-tuples poll. It reports ns/next beside ns/op.
//
//	go test -run '^$' -bench InstrumentedNext ./internal/algebra
func BenchmarkInstrumentedNext(b *testing.B) {
	const rows = 2000
	row := bindRow("x", "v")
	scan := func() *FuncScan {
		return &FuncScan{OpenFn: func(*Context) (func() (Binding, error), error) {
			n := 0
			return func() (Binding, error) {
				if n == rows {
					return nil, nil
				}
				n++
				return row, nil
			}, nil
		}}
	}
	for _, c := range []struct {
		name string
		op   func() Operator
	}{
		{"bare", func() Operator { return scan() }},
		{"instrumented", func() Operator { op, _ := Instrument(scan()); return op }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := &Context{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := c.op()
				if err := op.Open(ctx); err != nil {
					b.Fatal(err)
				}
				for {
					t, err := op.Next()
					if err != nil {
						b.Fatal(err)
					}
					if t == nil {
						break
					}
				}
				if err := op.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows+1), "ns/next")
		})
	}
}
