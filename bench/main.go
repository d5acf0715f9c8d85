// Command bench is the repository's benchmark: four named workloads
// driven through HTTP -> cluster -> engine on a loopback listener, every
// answer checked against a serial twin, end-to-end metrics from an
// untraced window and per-layer metrics from one traced pass. It claims no
// gain; it is the yardstick later changes are held to. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// recordSchema versions the run record printed before the result line.
const recordSchema = "nimble/bench/v1"

// A run boots the deployment at least minSetups times, and goes on (up to
// maxSetups) until the boots add up to setupBudget; setup_s is the median,
// because one boot of 0.1 s is too short to repeat within its bound.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// heapBallast is pointer-free memory held for the life of the process so
// that the collector paces itself by a heap of a server's size. Without it
// the live heap is 2-7 MB, the collector runs 200 times a second, and its
// share of the CPU follows the size of the harness's own sample arrays:
// point-pushdown throughput drifted from 4800 to 7900 1/s over 30 s.
const heapBallast = 64 << 20

// failBound is the share of requests that may fail before the command
// exits non-zero: none on the closed loops, and on cached-mix only what a
// rare shed under a refresh could explain.
var failBound = map[string]float64{wlPoint: 0, wlJoin: 0, wlExport: 0, wlCached: 0.002}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record: everything needed to read or repeat the run.
type record struct {
	Schema     string             `json:"schema"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"git_commit"`
	DataDigest string             `json:"data_digest"`
	WindowS    float64            `json:"window_s"`
	Clients    int                `json:"clients"`
	RatePerS   float64            `json:"open_loop_rate_per_s,omitempty"`
	Samples    int                `json:"latency_samples"`
	P95OK      bool               `json:"p95_supported"`
	FailRatio  float64            `json:"fail_ratio"`
	Failures   map[string]int     `json:"failures"`
	Info       map[string]float64 `json:"informational"`
	WallS      float64            `json:"wall_s"`
	Result     result             `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty runs all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed for data and query streams")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	outDir := flag.String("out", "bench/out", "directory for trace-<workload>.json")
	calibrate := flag.Bool("calibrate", false, "run every workload twice at the same seed and print the relative difference of each end-to-end metric")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)

	if *calibrate {
		if err := runCalibration(*seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	names := workloadNames
	modes := []bool{false, true}
	if *workload != "" {
		names = []string{*workload}
		modes = []bool{*trace == 1}
	}
	start := time.Now()
	exit := 0
	var last *record
	for _, traced := range modes {
		for _, name := range names {
			rec, err := runOne(name, *seed, *seconds, traced, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			out, _ := json.MarshalIndent(rec, "", "  ")
			fmt.Println(string(out))
			if rec.FailRatio > failBound[name] {
				fmt.Fprintf(os.Stderr, "bench: %s: fail_ratio %.5f exceeds bound %.5f\n", name, rec.FailRatio, failBound[name])
				exit = 1
			}
			last = rec
		}
	}
	fmt.Fprintf(os.Stderr, "bench: total wall time %.1fs\n", time.Since(start).Seconds())
	line, _ := json.Marshal(last.Result)
	fmt.Println(string(line))
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne boots a workload's deployment, measures one window and, when
// traced, runs the traced pass. Untraced runs report the end-to-end
// metrics; traced runs report the per-layer metrics.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) (*record, error) {
	start := time.Now()
	var d *deployment
	var setups []float64
	for {
		t0 := time.Now()
		var err error
		if d, err = boot(name, seed, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// setup_s is not reported from a traced run, so it boots once.
		if traced || len(setups) == maxSetups || len(setups) >= minSetups && time.Since(start) >= setupBudget {
			break
		}
		d.close()
	}
	defer d.close()

	dur := time.Duration(seconds) * time.Second
	if traced {
		dur /= 2 // the window only feeds the counters that need load
	}
	before := readCounters(d)
	w, err := measure(d, dur, false)
	if err != nil {
		return nil, err
	}
	load := readCounters(d).since(before, w)

	rec := &record{
		Schema:     recordSchema,
		Workload:   name,
		Seed:       seed,
		Traced:     traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		DataDigest: d.data.digest(),
		WindowS:    w.elapsed.Seconds(),
		Clients:    w.clients,
		RatePerS:   w.rate,
		Samples:    len(w.latMS),
		P95OK:      supported(len(w.latMS), 95),
		FailRatio:  float64(w.failed()) / float64(w.attempted),
		Failures: map[string]int{
			"non_200": w.non200, "shed_503": w.shed, "answer_mismatch": w.mismatch, "transport": w.transport,
		},
		Info: map[string]float64{},
	}
	rec.Result = result{Correct: w.failed() == 0, Attempted: w.attempted, Failed: w.failed(), Metrics: map[string]metric{}}
	if len(w.latMS) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d attempted)", w.attempted)
	}
	e2e := map[string]metric{
		"qps":             {float64(len(w.latMS)) / w.elapsed.Seconds(), "1/s"},
		"p95_ms":          {percentile(w.latMS, 95), "ms"},
		"alloc_kb_per_op": {float64(w.allocBytes) / 1024 / float64(len(w.latMS)), "kB"},
		"setup_s":         {median(setups), "s"},
	}
	// Not gated: calibration showed neither repeats within a tenth on every
	// workload (README, "Calibration").
	tail := map[string]metric{
		"p50_ms":      {percentile(w.latMS, 50), "ms"},
		"late_ms_p95": {percentile(w.lateMS, 95), "ms"},
	}
	for k, v := range tail {
		rec.Info[k] = v.Value
	}
	if !traced {
		rec.Result.Metrics = e2e
	} else {
		layers, err := tracedPass(d, outDir)
		if err != nil {
			return nil, err
		}
		for _, extra := range []map[string]metric{load, tail} {
			for k, v := range extra {
				layers[k] = v
			}
		}
		rec.Result.Metrics = layers
		for k, v := range e2e {
			rec.Info[k] = v.Value
		}
	}
	rec.WallS = time.Since(start).Seconds()
	return rec, nil
}

// gitCommit names the commit checked out in the working directory, read
// from .git without leaving the checkout; "unknown" where there is no
// repository (the driver's checkouts are not one).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown" // packed ref: not worth a parser
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
