// Bind joins: "the compiler translates each fragment ... taking into
// account source type, data layout, and available indexes" (§2.1). When
// a join's right side is one SQL fragment over a table large enough to
// matter, and a join key reads an indexed column of it, the fragment is
// not fetched whole beside the other sources. The join drains its left
// side first and the fragment is fetched with the left side's distinct
// keys as an IN list, which the source answers from its index. The join
// operator itself is unchanged and still verifies every pair, so the
// answer cannot differ; only the rows moved do.
package opt

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// The constants of the decision, from BenchmarkBindCrossover in
// internal/core (DESIGN.md § Bind join records the run): with the table
// fetched by keys or whole and nothing else changed, the two cost the
// same at about one key per two rows, at every table size from 32 rows
// to 4096.
const (
	// bindMinRows is the smallest table worth binding. Below it the whole
	// table is fetched in under 0.2 ms, beside the other sources in the
	// parallel prefetch; keys would save a fraction of that and cost the
	// overlap.
	bindMinRows = 64
	// bindRowsPerKey keeps a margin under the crossover: keys are shipped
	// while they number at most a quarter of the rows, where the keyed
	// fetch is at least 15 % cheaper.
	bindRowsPerKey = 4
	// bindMaxKeys caps the IN list whatever the table's size, which bounds
	// the statement's length and how many distinct keys' worth of left
	// rows the join holds back. The keyed fetch stayed linear in the list
	// (about 8 µs a key, the rows it brings included) up to 2048 keys.
	bindMaxKeys = 1024
)

// ship implements algebra.Bind.Ship for a bound leaf: it writes the
// request the scan sends when it opens, just after.
func (fl *fragLeaf) ship(keys []string, whole bool) {
	fl.keys, fl.whole = len(keys), whole
	fl.spec.Req.Native = fl.frag.SQL
	if !whole {
		fl.spec.Req.Native = fl.frag.KeyedSQL(fl.keyCol, keys)
	}
}

// detail is the leaf's EXPLAIN label: the statement it sends, or, as the
// right leaf of a bind join that did not fall back, the keyed statement
// with the key list elided to its length so the line stays short and
// deterministic.
func (fl *fragLeaf) detail() string {
	sql := fl.frag.SQL
	if fl.keyCol != "" && !fl.whole {
		sql = fl.frag.KeyedLabel(fl.keyCol, fl.keys)
	}
	return fmt.Sprintf("pushdown %s: %s", fl.source, sql)
}

// bindJoin makes j a bind join when its right side is exactly one
// fragment scan over a source that evaluates selections and reports
// statistics, the table has at least bindMinRows rows, and one of the
// join's keys reads an indexed column of it. The bound fragment leaves
// Plan.Fetches: it cannot be prefetched, its request does not exist until
// the left side has been read.
//
// The plan of a correlated subquery is left alone. It runs once per
// outer binding, all runs share one whole-table fetch through the
// query's Access, and a keyed fetch per run would trade that for one
// source round trip per outer row.
func (p *Planner) bindJoin(plan *Plan, j *algebra.HashJoin) {
	i := slices.IndexFunc(plan.frags, func(fl *fragLeaf) bool { return algebra.Operator(fl.op) == j.Right })
	if i < 0 || plan.perOuterRow || !p.Opts.PushSelections {
		return
	}
	fl := plan.frags[i]
	stats, ok := sourceAs[catalog.Stats](fl.rel)
	if !ok || !fl.caps.Selection {
		return
	}
	ts, ok := stats.TableStats(fl.frag.Table)
	if !ok || ts.Rows < bindMinRows {
		return
	}
	leftVar, col := bindKey(j, fl)
	if col == "" {
		return
	}
	if i := slices.Index(plan.Fetches, *fl.spec); i >= 0 {
		plan.Fetches = slices.Delete(plan.Fetches, i, i+1)
	}
	fl.keyCol = col
	j.Bind = &algebra.Bind{Key: leftVar, MaxKeys: min(bindMaxKeys, ts.Rows/bindRowsPerKey), Rows: ts.Rows, Ship: fl.ship}
}

// bindKey picks the join key to ship: the first, natural variables before
// pairs, whose right-side variable reads an indexed column of the
// fragment's table. It returns the left-side variable carrying the
// values and the column.
func bindKey(j *algebra.HashJoin, fl *fragLeaf) (leftVar, col string) {
	var desc catalog.RelationalDescriptor
	for _, d := range fl.rel.Descriptors() {
		if strings.EqualFold(d.Table, fl.frag.Table) {
			desc = d
		}
	}
	usable := func(rightVar string) string {
		c := fl.frag.Columns[rightVar]
		if c != "" && slices.Contains(desc.IndexedColumns, c) {
			return c
		}
		return ""
	}
	for _, v := range j.On {
		if c := usable(v); c != "" {
			return v, c
		}
	}
	for _, pr := range j.Pairs {
		if c := usable(pr.Right); c != "" {
			return pr.Left, c
		}
	}
	return "", ""
}
