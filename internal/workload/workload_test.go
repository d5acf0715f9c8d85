package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/xmldm"
)

func TestDirtyCustomersShape(t *testing.T) {
	set := DirtyCustomers(200, 0.3, 1)
	if set.Entities != 200 {
		t.Errorf("entities = %d", set.Entities)
	}
	dups := len(set.Records) - 200
	if dups != len(set.Truth) {
		t.Errorf("dups = %d, truth = %d", dups, len(set.Truth))
	}
	// Duplicate rate approximately honored.
	rate := float64(dups) / 200
	if rate < 0.2 || rate > 0.4 {
		t.Errorf("dup rate = %v", rate)
	}
	// Web records use the single-address convention; crm the split one.
	for _, r := range set.Records {
		switch r.Source {
		case "crm":
			if r.Get("street") == "" || r.Get("address") != "" {
				t.Fatalf("crm record shape: %v", r)
			}
		case "web":
			if r.Get("address") == "" || r.Get("street") != "" {
				t.Fatalf("web record shape: %v", r)
			}
		}
	}
}

func TestDirtyCustomersDeterministic(t *testing.T) {
	a := DirtyCustomers(50, 0.2, 7)
	b := DirtyCustomers(50, 0.2, 7)
	if len(a.Records) != len(b.Records) {
		t.Fatal("nondeterministic record count")
	}
	for i := range a.Records {
		if a.Records[i].String() != b.Records[i].String() {
			t.Fatalf("record %d differs across same-seed runs", i)
		}
	}
	c := DirtyCustomers(50, 0.2, 8)
	same := len(a.Records) == len(c.Records)
	if same {
		identical := true
		for i := range a.Records {
			if a.Records[i].String() != c.Records[i].String() {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical data")
		}
	}
}

func TestTypoChangesString(t *testing.T) {
	set := DirtyCustomers(500, 1.0, 3)
	// With dupRate 1 every entity has a web twin; at least some names
	// must differ from their crm original (typos/nicknames applied).
	byID := map[string]string{}
	for _, r := range set.Records {
		if r.Source == "crm" {
			byID[strings.TrimPrefix(r.ID, "c")] = r.Get("name")
		}
	}
	changed := 0
	for _, r := range set.Records {
		if r.Source == "web" && byID[strings.TrimPrefix(r.ID, "w")] != r.Get("name") {
			changed++
		}
	}
	if changed < 100 {
		t.Errorf("only %d/500 names anomalized", changed)
	}
}

func TestCustomerDB(t *testing.T) {
	db := CustomerDB("crm", 50, 4, 1)
	if n := len(db.MustExec(`SELECT id FROM customers`).Rows); n != 50 {
		t.Errorf("customers = %d", n)
	}
	if n := len(db.MustExec(`SELECT oid FROM orders`).Rows); n < 100 || n > 450 {
		t.Errorf("orders = %d", n)
	}
	// Indexes present for pushdown experiments.
	if !db.HasIndex("customers", "city") || !db.HasIndex("orders", "cust") {
		t.Error("expected indexes missing")
	}
	// Escaped names (O''Brien style) do not break inserts: all names load.
	res := db.MustExec(`SELECT name FROM customers`)
	if len(res.Rows) != 50 {
		t.Errorf("names = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if name := row[res.Pos(0)]; name.Kind() == xmldm.KindNull {
			t.Errorf("a name loaded as NULL")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 10
	counts := func(theta float64) []int {
		z := NewZipf(n, theta, 42)
		c := make([]int, n)
		for i := 0; i < 20000; i++ {
			c[z.Next()]++
		}
		return c
	}
	maxOf := func(c []int) int {
		m := 0
		for _, v := range c {
			if v > m {
				m = v
			}
		}
		return m
	}
	uniform := counts(0)
	skewed := counts(1.2)
	// Uniform: max close to mean; skewed: one item dominates.
	if float64(maxOf(uniform)) > 20000/float64(n)*1.3 {
		t.Errorf("theta=0 not uniform: %v", uniform)
	}
	if float64(maxOf(skewed)) < 20000*0.3 {
		t.Errorf("theta=1.2 not skewed: %v", skewed)
	}
	// Distribution sums correctly.
	total := 0
	for _, v := range skewed {
		total += v
	}
	if total != 20000 {
		t.Errorf("total = %d", total)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(5, 0.9, 1)
	for i := 0; i < 1000; i++ {
		v := z.Next()
		if v < 0 || v >= 5 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestCityQueries(t *testing.T) {
	qs := CityQueries(100, 0.9, 5)
	if len(qs) != 100 {
		t.Fatalf("queries = %d", len(qs))
	}
	distinct := map[string]bool{}
	for _, q := range qs {
		if !strings.Contains(q, "WHERE") || !strings.Contains(q, "customers") {
			t.Fatalf("bad query: %s", q)
		}
		distinct[q] = true
	}
	// Zipf skew: far fewer distinct queries than total.
	if len(distinct) > len(Cities()) {
		t.Errorf("distinct = %d", len(distinct))
	}
	if math.Abs(float64(len(qs))-100) > 0 {
		t.Error("length")
	}
}
