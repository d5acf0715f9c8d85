package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// runCalibration is how the bounds in BENCHMARK.json and the cached-mix
// rate were chosen: two back-to-back full sets at one seed, printed with
// the relative difference of every end-to-end metric, then the closed-loop
// capacity of the cached-mix stream that its open-loop rate is half of.
func runCalibration(seed int64, seconds int) error {
	sets := make([]map[string]map[string]metric, 2)
	for i := range sets {
		sets[i] = map[string]map[string]metric{}
		for _, name := range workloadNames {
			rec, err := runOne(name, seed, seconds, false, "")
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if rec.Result.Failed > 0 {
				return fmt.Errorf("%s: %d of %d requests failed", name, rec.Result.Failed, rec.Result.Attempted)
			}
			sets[i][name] = rec.Result.Metrics
		}
	}
	fmt.Printf("%-15s %-16s %14s %14s %9s\n", "workload", "metric", "first", "second", "rel.diff")
	for _, name := range workloadNames {
		var keys []string
		for k := range sets[0][name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a, b := sets[0][name][k].Value, sets[1][name][k].Value
			fmt.Printf("%-15s %-16s %14.4f %14.4f %8.2f%%\n", name, k, a, b, 100*math.Abs(a-b)/math.Min(a, b))
		}
	}

	d, err := boot(wlCached, seed, false)
	if err != nil {
		return err
	}
	defer d.close()
	w, err := measure(d, time.Duration(seconds)*time.Second, true)
	if err != nil {
		return err
	}
	capacity := float64(len(w.latMS)) / w.elapsed.Seconds()
	fmt.Printf("\ncached-mix closed-loop capacity, %d senders: %.0f req/s; committed open-loop rate %.0f req/s = %.0f%%\n",
		w.clients, capacity, cachedMixRate, 100*cachedMixRate/capacity)
	return nil
}
