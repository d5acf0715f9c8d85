package main

import (
	"fmt"
	"testing"
)

// The quartiles are the ones BENCH_15.json was assembled with (linear
// interpolation), so records stay comparable: its fed-join parent runs
// gave median 114.0047, q1 112.9089, q3 114.5757.
func TestSummarizeMatchesEarlierRecords(t *testing.T) {
	runs := []float64{112.5129, 114.2184, 113.8936, 114.6948, 114.1158, 115.3667, 112.8313, 115.0321, 113.1417, 109.3178}
	s := summarize(runs)
	if s.Median != 114.0047 || s.Q1 != 112.9089 || s.Q3 != 114.5757 {
		t.Errorf("summarize = %+v", s)
	}
	if s.Runs[0] != runs[0] || len(s.Runs) != len(runs) {
		t.Errorf("runs not kept in run order: %v", s.Runs)
	}
}

func metricOf(direction string, bound float64, parent, change []float64) *metricCompare {
	m := &metricCompare{Better: direction, Bound: bound}
	compare(m, parent, change)
	return m
}

func TestGainRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		change []float64
		want   bool
	}{
		{"ten wins, far apart", []float64{150, 151, 149, 150, 152, 148, 150, 151, 149, 150}, true},
		{"nine wins and one loss", []float64{150, 151, 149, 150, 152, 90, 150, 151, 149, 150}, true},
		{"eight wins", []float64{150, 151, 149, 150, 152, 90, 90, 151, 149, 150}, false},
		{"a tie counts for neither side", []float64{150, 151, 99, 150, 152, 90, 150, 151, 149, 150}, false},
		{"ten wins inside the parent's quartiles", []float64{100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5}, false},
		{"ten losses", []float64{50, 51, 49, 50, 52, 48, 50, 51, 49, 50}, false},
	} {
		if got := gain(metricOf("higher", 0.25, parent, tc.change)); got != tc.want {
			t.Errorf("%s: gain = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Lower is better: the same shapes mirrored.
	if !gain(metricOf("lower", 0.25, parent, []float64{50, 51, 49, 50, 52, 48, 50, 51, 49, 50})) {
		t.Error("lower-is-better gain not recognised")
	}
}

func TestGuardAppliesTheBound(t *testing.T) {
	tight := []float64{100, 100.5, 99.5}
	for _, tc := range []struct {
		name      string
		direction string
		parent    []float64
		change    []float64
		want      string
	}{
		{"unchanged", "higher", tight, tight, "within bound"},
		{"better", "higher", tight, []float64{140, 141, 139}, "within bound"},
		{"worse inside the bound", "higher", tight, []float64{80, 81, 79}, "within bound"},
		{"worse past the bound", "higher", tight, []float64{70, 71, 69}, "regressed"},
		{"lower is better, worse past the bound", "lower", tight, []float64{130, 131, 129}, "regressed"},
		{"past the bound but the parent spreads wider", "higher", []float64{100, 160, 40}, []float64{70, 71, 69}, "unresolved"},
		{"zero stays zero", "lower", []float64{0, 0, 0}, []float64{0, 0, 0}, "within bound"},
	} {
		if got := guard(metricOf(tc.direction, 0.25, tc.parent, tc.change)); got != tc.want {
			t.Errorf("%s: guard = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestJudgeCountsFailuresAgainstAGain(t *testing.T) {
	parent := []float64{100, 101, 99}
	change := []float64{150, 151, 149}
	wc := &workloadCompare{Workload: "fed-join", Seed: 7,
		Attempted: map[string]int{"parent": 1000, "change": 1000},
		Failed:    map[string]int{"parent": 0, "change": 5},
		Incorrect: map[string]int{},
		Metrics:   map[string]*metricCompare{"qps": metricOf("higher", 0.25, parent, change)}}
	rec := &record{}
	if judge(wc, "fed-join", "qps", rec) || wc.Metrics["qps"].Verdict != "claim not met" || len(rec.Regressed) != 1 {
		t.Errorf("a gain with more failed operations passed: verdict %q, regressed %v", wc.Metrics["qps"].Verdict, rec.Regressed)
	}
	// A failure on the parent's side is not the change's fault.
	wc.Failed["change"], wc.Failed["parent"], wc.Incorrect["parent"] = 0, 1, 1
	rec = &record{}
	if !judge(wc, "fed-join", "qps", rec) || wc.Metrics["qps"].Verdict != "gain" || len(rec.Regressed) != 0 {
		t.Errorf("clean gain: verdict %q, regressed %v", wc.Metrics["qps"].Verdict, rec.Regressed)
	}
}

// TestTracePlanCoversEveryWorkload: every workload is traced on the first
// seed, the claimed one on every seed, in BENCHMARK.json's order; with no
// claim each workload is traced once.
func TestTracePlanCoversEveryWorkload(t *testing.T) {
	workloads := []string{"point-pushdown", "fed-join", "bulk-export", "cached-mix"}
	seeds := []int64{7, 20010402}
	got := fmt.Sprint(tracePlan(workloads, "bulk-export", seeds))
	if want := "[{point-pushdown 7} {fed-join 7} {bulk-export 7} {bulk-export 20010402} {cached-mix 7}]"; got != want {
		t.Errorf("claimed plan = %s, want %s", got, want)
	}
	got = fmt.Sprint(tracePlan(workloads, "", seeds))
	if want := "[{point-pushdown 7} {fed-join 7} {bulk-export 7} {cached-mix 7}]"; got != want {
		t.Errorf("unclaimed plan = %s, want %s", got, want)
	}
}
