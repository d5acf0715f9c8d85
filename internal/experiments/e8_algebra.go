package experiments

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// E8Algebra microbenchmarks the physical algebra on the two data shapes
// §3.1's hybrid model is designed for: tuple streams (relational) and
// element trees (XML). Operators: tuple scan + select, hash join, tree
// pattern match, and construct. Metric: items processed per second.
func E8Algebra(s Scale) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Physical algebra operator throughput",
		Header: []string{"operator", "input", "items/sec"},
	}
	n := s.Customers * 10

	// Tuple scan + select on a binding stream (relational shape).
	tuples := make([]algebra.Binding, n)
	for i := range tuples {
		tuples[i] = xmldm.NewTuple(
			xmldm.Field{Name: "id", Value: xmldm.Int(int64(i))},
			xmldm.Field{Name: "v", Value: xmldm.Int(int64(i % 100))},
		)
	}
	pred := xmlql.MustParse(`WHERE <a>$q</a> IN "s", $v < 50 CONSTRUCT <r/>`).Where[1].(*xmlql.PredicateCond).Expr
	t.AddRow("select (tuples)", fmt.Sprintf("%d tuples", n), ratePerSec(n, func() {
		op := &algebra.Select{Input: &algebra.TupleScan{Tuples: tuples}, Pred: pred}
		if _, err := algebra.Drain(&algebra.Context{}, op); err != nil {
			panic(err)
		}
	}))

	// Hash join of two binding streams on a shared variable.
	left := make([]algebra.Binding, n/2)
	right := make([]algebra.Binding, n/2)
	for i := range left {
		left[i] = xmldm.NewTuple(xmldm.Field{Name: "k", Value: xmldm.Int(int64(i))},
			xmldm.Field{Name: "l", Value: xmldm.String("x")})
		right[i] = xmldm.NewTuple(xmldm.Field{Name: "k", Value: xmldm.Int(int64(i))},
			xmldm.Field{Name: "r", Value: xmldm.String("y")})
	}
	t.AddRow("hash join", fmt.Sprintf("%d x %d", n/2, n/2), ratePerSec(n, func() {
		op := &algebra.HashJoin{
			Left:  &algebra.TupleScan{Tuples: left},
			Right: &algebra.TupleScan{Tuples: right},
		}
		if _, err := algebra.Drain(&algebra.Context{}, op); err != nil {
			panic(err)
		}
	}))

	// Tree pattern match (XML shape): a document of n/10 records.
	b := xmldm.NewBuilder()
	var kids []any
	for i := 0; i < n/10; i++ {
		kids = append(kids, b.Elem("book",
			xmldm.Attr{Name: "year", Value: fmt.Sprint(1990 + i%20)},
			b.Elem("title", fmt.Sprintf("Title %d", i)),
			b.Elem("price", fmt.Sprint(10+i%90)),
		))
	}
	doc := b.Elem("bib", kids...)
	pat := xmlql.MustParse(`WHERE <book year=$y><title>$t</title><price>$p</price></book> IN "b" CONSTRUCT <r/>`).
		Where[0].(*xmlql.PatternCond).Pattern
	t.AddRow("pattern match (tree)", fmt.Sprintf("%d elements", doc.CountElements()), ratePerSec(n/10, func() {
		if _, err := algebra.MatchPattern(&algebra.Context{}, doc, pat, xmldm.NewTuple()); err != nil {
			panic(err)
		}
	}))

	// Construct: build result elements from bindings, as the engine does —
	// the template compiled once, its results built through one builder.
	tmpl := xmlql.MustParse(`WHERE <a>$q</a> IN "s" CONSTRUCT <out id=$id><val>$v</val></out>`).Construct
	prog := algebra.CompileProgram(tmpl, 0)
	t.AddRow("construct", fmt.Sprintf("%d results", n/10), ratePerSec(n/10, func() {
		bld := prog.Builder(n / 10)
		for i := 0; i < n/10; i++ {
			if _, err := bld.Build(&algebra.Context{}, tuples[i]); err != nil {
				panic(err)
			}
		}
	}))

	t.Notes = append(t.Notes,
		"tuple-shaped data avoids tree matching entirely — the efficiency argument behind §3.1's hybrid model")
	return t
}

// ratePerSec runs fn (which processes items) enough times to time it,
// returning items per second as a formatted string.
func ratePerSec(items int, fn func()) string {
	// Warm once, then time a few runs.
	fn()
	const runs = 3
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn()
	}
	elapsed := time.Since(start) / runs
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	rate := float64(items) / elapsed.Seconds()
	switch {
	case rate >= 1e6:
		return fmt.Sprintf("%.1fM", rate/1e6)
	case rate >= 1e3:
		return fmt.Sprintf("%.0fk", rate/1e3)
	default:
		return fmt.Sprintf("%.0f", rate)
	}
}
