package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// bindBenchEngine holds a table of rows customers twice over — id is the
// indexed primary key, code carries the same values with no index — and
// an XML feed of 2*keys tickets naming keys distinct customers. A join on
// id is planned as a bind join; the same join on code cannot be, and
// fetches the table whole. Nothing else differs between the two.
func bindBenchEngine(tb testing.TB, rows, keys int) *Engine {
	tb.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, code INT, name VARCHAR, city VARCHAR)`)
	for i := 0; i < rows; i++ {
		if err := db.Insert("customers", rdb.Row{xmldm.Int(i), xmldm.Int(i), xmldm.String(fmt.Sprintf("N%d", i)), xmldm.String("C")}); err != nil {
			tb.Fatal(err)
		}
	}
	var sb strings.Builder
	sb.WriteString("<tickets>")
	for k := 0; k < 2*keys; k++ {
		// Spread the keys over the table, two tickets each.
		fmt.Fprintf(&sb, `<ticket><cust>%d</cust><subject>S%d</subject></ticket>`, (k%keys)*rows/keys, k)
	}
	sb.WriteString("</tickets>")
	tickets, err := sources.NewXMLSource("tickets", sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	cat := catalog.New()
	for _, src := range []catalog.Source{sources.NewRelationalSource("crmdb", db), tickets} {
		if err := cat.AddSource(src); err != nil {
			tb.Fatal(err)
		}
	}
	return New(cat, Config{Metrics: obs.NewRegistry()})
}

func bindBenchQuery(col string) string {
	return `WHERE <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets",
	      <customer><` + col + `>$i</` + col + `><name>$n</name><city>$c</city></customer> IN "crmdb"
	CONSTRUCT <r><who>$n</who><city>$c</city><subject>$s</subject></r>`
}

// BenchmarkBindCrossover measures a two-source join with the table
// fetched by the outer side's keys (col=id) and fetched whole (col=code),
// over table sizes and distinct-key counts on both sides of the two
// constants in internal/opt/bind.go. DESIGN.md § Bind join records a run,
// taken with bindMinRows lowered to 1 and the key caps raised past the
// table sizes: as committed, the "keyed" cells past the constants measure
// the fallback.
//
//	go test -run '^$' -bench BindCrossover -benchtime 300x ./internal/core
func BenchmarkBindCrossover(b *testing.B) {
	for _, rows := range []int{16, 32, 64, 128, 600, 4096} {
		for _, keys := range []int{1, 8, 32, 128, 256, 512, 2048} {
			if keys > rows {
				continue
			}
			e := bindBenchEngine(b, rows, keys)
			for _, side := range [][2]string{{"id", "keyed"}, {"code", "whole"}} {
				q := bindBenchQuery(side[0])
				b.Run(fmt.Sprintf("rows=%d/keys=%d/%s", rows, keys, side[1]), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := e.Query(context.Background(), q)
						if err != nil {
							b.Fatal(err)
						}
						if len(res.Values) != 2*keys {
							b.Fatalf("%d rows, want %d", len(res.Values), 2*keys)
						}
					}
				})
			}
		}
	}
}
