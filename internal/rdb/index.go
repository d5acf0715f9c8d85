package rdb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/xmldm"
)

// Index is a combined hash + ordered index over one column. The hash map
// serves equality lookups in O(1); the sorted key list serves range scans
// in O(log n + k). Keeping both in one structure mirrors what the
// compiler cares about: "the presence of indices on the data" (§2.1)
// determines whether a selection is cheap at the source.
type Index struct {
	column string
	unique bool
	hash   map[uint64][]entry
	keys   []orderedKey // sorted by value
	dirty  bool         // keys need re-sorting
	// sortMu guards keys and dirty while a reader sorts them: a SELECT
	// holds only the database's read lock, so several may reach a dirty
	// index at once. Writers hold the write lock and need not take it.
	sortMu sync.Mutex
}

type entry struct {
	val Value
	rid int
}

type orderedKey struct {
	val Value
	rid int
}

func newIndex(column string, unique bool) *Index {
	return &Index{column: column, unique: unique, hash: make(map[uint64][]entry)}
}

// check reports a uniqueness violation that adding v would cause.
func (ix *Index) check(v Value) error {
	if !ix.unique || v == nil || v.Kind() == xmldm.KindNull {
		return nil
	}
	h := xmldm.Hash(v)
	for _, e := range ix.hash[h] {
		if xmldm.Equal(e.val, v) {
			return fmt.Errorf("unique index on %q: duplicate key %s", ix.column, v.String())
		}
	}
	return nil
}

// add indexes row rid's value v. It does not check uniqueness: callers
// check first (check), so that a failing row changes nothing.
func (ix *Index) add(v Value, rid int) {
	if v == nil {
		v = xmldm.Null{}
	}
	h := xmldm.Hash(v)
	ix.hash[h] = append(ix.hash[h], entry{val: v, rid: rid})
	ix.keys = append(ix.keys, orderedKey{val: v, rid: rid})
	ix.dirty = true
}

// lookupEq returns the row ids whose column equals v.
func (ix *Index) lookupEq(v Value) []int {
	var out []int
	for _, e := range ix.hash[xmldm.Hash(v)] {
		if xmldm.Equal(e.val, v) {
			out = append(out, e.rid)
		}
	}
	return out
}

// lookupIn returns the row ids whose column equals any of vals, each
// once and in ascending order — table order, the order a scan filtered
// by the same list would deliver.
func (ix *Index) lookupIn(vals []Value) []int {
	var out []int
	for _, v := range vals {
		out = append(out, ix.lookupEq(v)...)
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// lookupRange returns row ids with lo <= value <= hi; nil bounds are
// open. Inclusivity of each bound is controlled by loInc/hiInc.
func (ix *Index) lookupRange(lo, hi Value, loInc, hiInc bool) []int {
	ix.ensureSorted()
	n := len(ix.keys)
	start := 0
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			c := xmldm.Compare(ix.keys[i].val, lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	var out []int
	for i := start; i < n; i++ {
		if hi != nil {
			c := xmldm.Compare(ix.keys[i].val, hi)
			if c > 0 || (c == 0 && !hiInc) {
				break
			}
		}
		out = append(out, ix.keys[i].rid)
	}
	return out
}

// ensureSorted sorts the keys once after they changed. Callers hold the
// database's lock, read or write.
func (ix *Index) ensureSorted() {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if !ix.dirty {
		return
	}
	sort.SliceStable(ix.keys, func(i, j int) bool {
		return xmldm.Compare(ix.keys[i].val, ix.keys[j].val) < 0
	})
	ix.dirty = false
}

// parseDate accepts the date formats the generators and SQL dialect use.
func parseDate(s string) (xmldm.Date, error) {
	for _, layout := range []string{time.RFC3339, "2006-01-02", "2006-01-02 15:04:05"} {
		if t, err := time.Parse(layout, s); err == nil {
			return xmldm.Date(t), nil
		}
	}
	return xmldm.Date{}, fmt.Errorf("rdb: unparseable date %q", s)
}
