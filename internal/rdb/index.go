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
	pos    int // the column's position in a row
	unique bool
	hash   map[uint64][]entry
	keys   []entry // sorted by key
	dirty  bool    // keys need re-sorting
	// sortMu guards keys and dirty while a reader sorts them: a SELECT
	// holds only the database's read lock, so several may reach a dirty
	// index at once. Writers hold the write lock and need not take it.
	sortMu sync.Mutex
}

// entry is row rid's cell: key is what a SELECT reads from it
// (cellValue), which lookups find and order by, and val what it stores,
// which uniqueness is checked on.
type entry struct {
	key, val Value
	rid      int
}

func newIndex(column string, pos int, unique bool) *Index {
	return &Index{column: column, pos: pos, unique: unique, hash: make(map[uint64][]entry)}
}

// check reports a uniqueness violation that adding row would cause: a
// stored value a unique index holds already. NULL is no value, and
// collides with nothing — not with another NULL, nor with the empty
// string it reads as.
func (ix *Index) check(row Row) error {
	v := row[ix.pos]
	if !ix.unique || v.Kind() == xmldm.KindNull {
		return nil
	}
	for _, e := range ix.hash[xmldm.Hash(cellValue(row, ix.pos))] {
		if xmldm.Equal(e.val, v) {
			return fmt.Errorf("unique index on %q: duplicate key %s", ix.column, v.String())
		}
	}
	return nil
}

// add indexes row rid. It does not check uniqueness: callers check first
// (check), so that a failing row changes nothing.
func (ix *Index) add(row Row, rid int) {
	e := entry{key: cellValue(row, ix.pos), val: row[ix.pos], rid: rid}
	h := xmldm.Hash(e.key)
	ix.hash[h] = append(ix.hash[h], e)
	ix.keys = append(ix.keys, e)
	ix.dirty = true
}

// lookupEq returns the row ids whose cell reads as equal to v.
func (ix *Index) lookupEq(v Value) []int {
	var out []int
	for _, e := range ix.hash[xmldm.Hash(v)] {
		if xmldm.Equal(e.key, v) {
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

// lookupRange returns row ids with lo <= key <= hi; nil bounds are
// open. Inclusivity of each bound is controlled by loInc/hiInc.
func (ix *Index) lookupRange(lo, hi Value, loInc, hiInc bool) []int {
	ix.ensureSorted()
	n := len(ix.keys)
	start := 0
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			c := xmldm.Compare(ix.keys[i].key, lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	var out []int
	for i := start; i < n; i++ {
		if hi != nil {
			c := xmldm.Compare(ix.keys[i].key, hi)
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
		return xmldm.Compare(ix.keys[i].key, ix.keys[j].key) < 0
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
