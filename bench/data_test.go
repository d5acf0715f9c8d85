package main

import (
	"reflect"
	"testing"
)

// The same seed must give the same data and query stream, and another seed
// different ones: the program sees only what the seed generated.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if a.digest() != b.digest() || !reflect.DeepEqual(a.stream, b.stream) || !reflect.DeepEqual(a.pool, b.pool) {
			t.Errorf("%s: seed 7 generated two different datasets", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same dataset", name)
		}
		if reflect.DeepEqual(a.stream, c.stream) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
	if _, err := generate("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// One request in ten of cached-mix is a cold query; the rest are the forty
// city queries, the most popular far ahead of the least.
func TestCachedMixBlend(t *testing.T) {
	d, err := generate(wlCached, 3)
	if err != nil {
		t.Fatal(err)
	}
	hot := len(benchCities)
	cold, counts := 0, make([]int, hot)
	for _, idx := range d.stream {
		if idx >= hot {
			cold++
		} else {
			counts[idx]++
		}
	}
	if share := float64(cold) / float64(len(d.stream)); share < 0.08 || share > 0.12 {
		t.Errorf("cold share = %.3f, want about 0.10", share)
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == 0 || hi < 10*lo {
		t.Errorf("city popularity is not skewed: least %d, most %d", lo, hi)
	}
}
