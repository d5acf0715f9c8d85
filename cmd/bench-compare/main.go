// Command bench-compare measures a change against a parent revision with
// the repository benchmark and writes the BENCH_<n>.json record
// (schema nimble/bench-compare/v1). It replaces the twenty-odd manual
// `bench/run.sh` invocations earlier records were assembled from, and
// checks what it writes:
//
//   - the parent is exported with `git archive` to .bench_build/compare/
//     and built there by its own bench/run.sh; the change is the working
//     tree, built by its own. bench/ itself is never touched.
//   - the claimed workload runs -pairs alternating pairs (which side goes
//     first alternates too) on every seed; the other workloads run
//     -guard-pairs pairs on the first seed.
//   - a gain counts when the change wins at least nine tenths of the
//     pairs (ties count for neither side), the medians differ by more
//     than the parent's inter-quartile range, and the change had no more
//     incorrect runs and no larger share of failed operations than the
//     parent.
//   - every other pairing of workload and end-to-end metric must not be
//     worse than the parent by more than BENCHMARK.json's bound; where the
//     parent's own spread is wider than the bound it is reported
//     unresolved, not unchanged.
//   - a traced pass of every workload on the first seed, and of the
//     claimed workload on every seed, records the per-layer metrics of
//     both sides, so the record shows where the saving sits and every
//     layer number keeps a trajectory.
//
// Usage (through `make bench-compare PARENT=<rev> ISSUE=<n> CLAIM=fed-join:qps`):
//
//	bench-compare -parent <rev> -out BENCH_16.json -issue 16 -claim fed-join:qps
//
// It exits non-zero when the claim is not met or a metric regressed,
// unless -report-only.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const schema = "nimble/bench-compare/v1"

// benchmark is the part of BENCHMARK.json the comparison needs.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line bench/run.sh prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type metricCompare struct {
	Unit              string    `json:"unit"`
	Better            string    `json:"better"`
	Bound             float64   `json:"bound"`
	Parent            sideStats `json:"parent"`
	Change            sideStats `json:"change"`
	RatioOfMedians    float64   `json:"ratio_of_medians"`
	PairsChangeBetter int       `json:"pairs_change_better"`
	// Verdict is "gain" (the claimed metric, rule met), "claim not met",
	// "within bound", "regressed" or "unresolved".
	Verdict string `json:"verdict"`
}

type workloadCompare struct {
	Workload  string                    `json:"workload"`
	Seed      int64                     `json:"seed"`
	Pairs     int                       `json:"pairs"`
	Failed    map[string]int            `json:"failed"`
	Attempted map[string]int            `json:"attempted"`
	Incorrect map[string]int            `json:"incorrect_runs"`
	Metrics   map[string]*metricCompare `json:"metrics"`
}

type tracedMetric struct {
	Unit             string  `json:"unit"`
	Parent           float64 `json:"parent"`
	Change           float64 `json:"change"`
	ChangeOverParent float64 `json:"change_over_parent"`
}

type tracedCompare struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	RunsPerSide int                     `json:"runs_per_side"`
	Metrics     map[string]tracedMetric `json:"metrics"`
}

type record struct {
	Schema       string            `json:"schema"`
	Issue        int               `json:"issue"`
	ParentCommit string            `json:"parent_commit"`
	Command      string            `json:"command"`
	Machine      map[string]any    `json:"machine"`
	Rule         string            `json:"rule"`
	Claim        string            `json:"claim"`
	ClaimMet     *bool             `json:"claim_met,omitempty"`
	Regressed    []string          `json:"regressed"`
	Unresolved   []string          `json:"unresolved"`
	Notes        []string          `json:"notes,omitempty"`
	EndToEnd     []workloadCompare `json:"end_to_end"`
	Traced       []tracedCompare   `json:"traced"`
}

// quantile is the linear-interpolation quantile (type 7) of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarize(runs []float64) sideStats {
	sorted := append([]float64(nil), runs...)
	sort.Float64s(sorted)
	return sideStats{Median: round4(quantile(sorted, 0.5)), Q1: round4(quantile(sorted, 0.25)), Q3: round4(quantile(sorted, 0.75)), Runs: round4s(runs)}
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func round4s(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = round4(x)
	}
	return out
}

// compare fills in everything of a metric's comparison but the verdict.
func compare(m *metricCompare, parent, change []float64) {
	m.Parent, m.Change = summarize(parent), summarize(change)
	if m.Parent.Median != 0 {
		m.RatioOfMedians = round4(m.Change.Median / m.Parent.Median)
	}
	for i := range parent {
		if better(m.Better, change[i], parent[i]) {
			m.PairsChangeBetter++
		}
	}
}

// better reports whether a is strictly better than b.
func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// gain applies the rule for a claimed metric: nine tenths of the pairs,
// and medians further apart than the parent's own quartiles.
func gain(m *metricCompare) bool {
	pairs := len(m.Parent.Runs)
	need := int(math.Ceil(0.9 * float64(pairs)))
	return m.PairsChangeBetter >= need &&
		better(m.Better, m.Change.Median, m.Parent.Median) &&
		math.Abs(m.Change.Median-m.Parent.Median) > m.Parent.Q3-m.Parent.Q1
}

// guard applies the benchmark's bound to a metric that must not move.
func guard(m *metricCompare) string {
	p, c := m.Parent.Median, m.Change.Median
	if p == 0 {
		if c == 0 || better(m.Better, c, p) {
			return "within bound"
		}
		return "unresolved"
	}
	worse := (c - p) / math.Abs(p)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= m.Bound:
		return "within bound"
	case (m.Parent.Q3-m.Parent.Q1)/math.Abs(p) > m.Bound:
		return "unresolved"
	default:
		return "regressed"
	}
}

type runner struct {
	root, parentDir string
	seconds         int
}

// run executes one bench/run.sh in dir and parses the result line.
func (r *runner) run(dir, workload string, seed int64, trace int) (*runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(r.seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s in %s: %w\n%s", strings.Join(cmd.Args, " "), dir, err, tail(stderr.String(), 20))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result: %w", strings.Join(cmd.Args, " "), err)
	}
	return &res, nil
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// pairs runs n alternating parent/change pairs of one workload and seed.
func (r *runner) pairs(b *benchmark, workload string, seed int64, n int) (*workloadCompare, error) {
	wc := &workloadCompare{Workload: workload, Seed: seed, Pairs: n,
		Failed: map[string]int{}, Attempted: map[string]int{}, Incorrect: map[string]int{},
		Metrics: map[string]*metricCompare{}}
	runs := map[string]map[string][]float64{"parent": {}, "change": {}}
	for i := 0; i < n; i++ {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			order = []string{"change", "parent"}
		}
		for _, side := range order {
			dir := r.root
			if side == "parent" {
				dir = r.parentDir
			}
			res, err := r.run(dir, workload, seed, 0)
			if err != nil {
				return nil, err
			}
			wc.Failed[side] += res.Failed
			wc.Attempted[side] += res.Attempted
			if !res.Correct {
				wc.Incorrect[side]++
			}
			for name, m := range res.Metrics {
				runs[side][name] = append(runs[side][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "bench-compare: %s seed %d pair %d/%d %s: qps %.1f\n", workload, seed, i+1, n, side, res.Metrics["qps"].Value)
		}
	}
	for _, e := range b.EndToEnd {
		if len(runs["parent"][e.Name]) != n || len(runs["change"][e.Name]) != n {
			return nil, fmt.Errorf("%s: metric %s missing from some runs", workload, e.Name)
		}
		m := &metricCompare{Unit: e.Unit, Better: e.Better, Bound: e.Bound}
		compare(m, runs["parent"][e.Name], runs["change"][e.Name])
		wc.Metrics[e.Name] = m
	}
	return wc, nil
}

// traced runs the traced pass once per side and pairs up the metrics.
func (r *runner) traced(workload string, seed int64) (*tracedCompare, error) {
	tc := &tracedCompare{Workload: workload, Seed: seed, RunsPerSide: 1, Metrics: map[string]tracedMetric{}}
	p, err := r.run(r.parentDir, workload, seed, 1)
	if err != nil {
		return nil, err
	}
	c, err := r.run(r.root, workload, seed, 1)
	if err != nil {
		return nil, err
	}
	for name, pm := range p.Metrics {
		cm, ok := c.Metrics[name]
		if !ok {
			continue
		}
		tm := tracedMetric{Unit: pm.Unit, Parent: round4(pm.Value), Change: round4(cm.Value)}
		if pm.Value != 0 {
			tm.ChangeOverParent = round4(cm.Value / pm.Value)
		}
		tc.Metrics[name] = tm
	}
	return tc, nil
}

// tracedRun is one traced pass: a workload on a seed.
type tracedRun struct {
	workload string
	seed     int64
}

// tracePlan lists a run's traced passes: every workload on the first
// seed, so each layer number has a trajectory from record to record, and
// the claimed workload on every other seed as well.
func tracePlan(workloads []string, claimWorkload string, seeds []int64) []tracedRun {
	var plan []tracedRun
	for _, w := range workloads {
		wSeeds := seeds[:1]
		if w == claimWorkload {
			wSeeds = seeds
		}
		for _, seed := range wSeeds {
			plan = append(plan, tracedRun{w, seed})
		}
	}
	return plan
}

// failShare is the share of operations that failed on a side.
func failShare(wc *workloadCompare, side string) float64 {
	if wc.Attempted[side] == 0 {
		return 0
	}
	return float64(wc.Failed[side]) / float64(wc.Attempted[side])
}

// judge stamps every metric of wc with its verdict and returns whether
// the claimed metric (if wc is the claimed workload) met the rule.
func judge(wc *workloadCompare, claimWorkload, claimMetric string, rec *record) bool {
	met := true
	// Only the change is on trial: a parent run that failed an operation
	// is recorded, and raises the share the change must not exceed.
	sound := wc.Incorrect["change"] <= wc.Incorrect["parent"] && failShare(wc, "change") <= failShare(wc, "parent")
	for name, m := range wc.Metrics {
		label := fmt.Sprintf("%s/%s@%d", wc.Workload, name, wc.Seed)
		if wc.Workload == claimWorkload && name == claimMetric {
			if gain(m) && sound {
				m.Verdict = "gain"
			} else {
				m.Verdict = "claim not met"
				met = false
			}
			continue
		}
		m.Verdict = guard(m)
		switch m.Verdict {
		case "regressed":
			rec.Regressed = append(rec.Regressed, label)
		case "unresolved":
			rec.Unresolved = append(rec.Unresolved, label)
		}
	}
	if !sound {
		rec.Regressed = append(rec.Regressed, fmt.Sprintf("%s@%d: more incorrect runs or a larger share of failed operations than the parent", wc.Workload, wc.Seed))
	}
	return met
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, "; ") }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// options are the command's flags.
type options struct {
	parent, out, claim, claimText, seeds string
	issue, pairs, guardPairs, seconds    int
	reportOnly                           bool
	notes                                stringList
}

func main() {
	var o options
	flag.StringVar(&o.parent, "parent", "", "revision to compare the working tree against (required)")
	flag.StringVar(&o.out, "out", "", "file to write the record to (default BENCH_<issue>.json)")
	flag.IntVar(&o.issue, "issue", 0, "issue number recorded in the file")
	flag.StringVar(&o.claim, "claim", "", "the claimed gain as workload:metric, e.g. fed-join:qps (empty claims nothing)")
	flag.StringVar(&o.claimText, "claim-text", "", "the claim in the issue's words, recorded beside the verdict")
	flag.IntVar(&o.pairs, "pairs", 10, "alternating pairs per seed on the claimed workload")
	flag.IntVar(&o.guardPairs, "guard-pairs", 3, "alternating pairs, first seed only, on every other workload")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window of each run (default BENCHMARK.json's run_seconds)")
	flag.StringVar(&o.seeds, "seeds", "7,20010402", "seeds; the second and later are the held-out ones")
	flag.BoolVar(&o.reportOnly, "report-only", false, "write the record and exit zero whatever it says (smoke runs)")
	flag.Var(&o.notes, "note", "free-text note recorded in the file (repeatable)")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	if o.parent == "" {
		return errors.New("-parent is required (make bench-compare PARENT=<rev>)")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if o.seconds <= 0 {
		o.seconds = b.RunSeconds
	}
	var seeds []int64
	for _, s := range strings.Split(o.seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, n)
	}
	claimWorkload, claimMetric, _ := strings.Cut(o.claim, ":")
	if o.claim != "" {
		known := false
		for _, w := range b.Workloads {
			known = known || w.Name == claimWorkload
		}
		if !known || claimMetric == "" {
			return fmt.Errorf("-claim %q: want workload:metric with a workload of BENCHMARK.json", o.claim)
		}
	}
	if o.out == "" {
		o.out = fmt.Sprintf("BENCH_%d.json", o.issue)
	}

	commit, err := gitOutput(root, "rev-parse", "--short=12", o.parent+"^{commit}")
	if err != nil {
		return err
	}
	parentDir := filepath.Join(root, ".bench_build", "compare", "parent-"+commit)
	if err := exportParent(root, commit, parentDir); err != nil {
		return err
	}
	r := &runner{root: root, parentDir: parentDir, seconds: o.seconds}

	rec := &record{
		Schema:       schema,
		Issue:        o.issue,
		ParentCommit: commit,
		Command: fmt.Sprintf("go run ./cmd/bench-compare -parent %s -claim %s -pairs %d -guard-pairs %d -seconds %d -seeds %s "+
			"(each run: bash bench/run.sh --workload W --seed S --seconds %d --trace 0|1; parent and change alternate, and which goes first alternates)",
			o.parent, o.claim, o.pairs, o.guardPairs, o.seconds, o.seeds, o.seconds),
		Machine: map[string]any{"nproc": runtime.NumCPU(), "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH},
		Rule: "a gain is claimed when the change wins >= 9/10 of the pairs (ties count for neither), the medians differ by more than the parent's q3-q1, " +
			"the change had no more incorrect runs and no larger share of failed operations than the parent; every other workload x end-to-end metric must be no worse than the parent by more than BENCHMARK.json's bound " +
			"(unresolved when the parent's own q3-q1 is wider than the bound)",
		Claim:      o.claimText,
		Regressed:  []string{},
		Unresolved: []string{},
		Notes:      o.notes,
	}
	if rec.Claim == "" {
		rec.Claim = o.claim
	}

	claimMet := true
	for _, w := range b.Workloads {
		wSeeds, n := seeds[:1], o.guardPairs
		if w.Name == claimWorkload {
			wSeeds, n = seeds, o.pairs
		}
		for _, seed := range wSeeds {
			wc, err := r.pairs(&b, w.Name, seed, n)
			if err != nil {
				return err
			}
			if !judge(wc, claimWorkload, claimMetric, rec) {
				claimMet = false
			}
			rec.EndToEnd = append(rec.EndToEnd, *wc)
		}
	}
	if o.claim != "" {
		rec.ClaimMet = &claimMet
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, tr := range tracePlan(workloads, claimWorkload, seeds) {
		tc, err := r.traced(tr.workload, tr.seed)
		if err != nil {
			return err
		}
		rec.Traced = append(rec.Traced, *tc)
	}
	sort.Strings(rec.Regressed)
	sort.Strings(rec.Unresolved)

	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench-compare: wrote %s (claim met: %v, regressed: %v, unresolved: %v)\n", o.out, claimMet, rec.Regressed, rec.Unresolved)
	if o.reportOnly {
		return nil
	}
	if o.claim != "" && !claimMet {
		return fmt.Errorf("claim %s not met", o.claim)
	}
	if len(rec.Regressed) > 0 {
		return fmt.Errorf("regressed beyond the benchmark's bounds: %s", strings.Join(rec.Regressed, ", "))
	}
	return nil
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(outBytes)), nil
}

// exportParent unpacks the committed files of commit into dir, once.
func exportParent(root, commit, dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-o", "pipefail", "-c", `git archive --format=tar "$0" | tar -x -C "$1"`, commit, dir)
	cmd.Dir = root
	if outBytes, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s to %s: %w: %s", commit, dir, err, strings.TrimSpace(string(outBytes)))
	}
	return nil
}
