package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Load shape. Closed-loop workloads run one client per CPU, each sending
// its next query when the previous answer has been checked. cached-mix is
// open loop: requests are due on a fixed schedule whatever the system does.
// Its rate is the one of those swept at which latency repeated best, well
// below the closed-loop capacity of the mix (see README, "Calibration").
const (
	cachedMixRate   = 1000.0 // requests per second
	openLoopSenders = 32     // goroutines that may have a request in flight
	refreshEvery    = time.Second
	warmup          = 2 * time.Second
)

// tally is what one sender saw; tallies are merged after the window.
type tally struct {
	attempted int
	non200    int       // status other than 200 and 503
	shed      int       // 503 from admission control
	mismatch  int       // 200 whose body is not the oracle's (includes answers flagged incomplete)
	transport int       // no response at all
	latMS     []float64 // latency of each correct answer
	lateMS    []float64 // open loop: how long after its due time each send began
}

func (t *tally) failed() int { return t.non200 + t.shed + t.mismatch + t.transport }

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.non200 += o.non200
	t.shed += o.shed
	t.mismatch += o.mismatch
	t.transport += o.transport
	t.latMS = append(t.latMS, o.latMS...)
	t.lateMS = append(t.lateMS, o.lateMS...)
}

// window is the outcome of one measured interval.
type window struct {
	tally
	elapsed    time.Duration
	allocBytes uint64
	refreshMS  []float64
	clients    int
	rate       float64 // 0 for closed loop
}

// sender issues queries over one keep-alive connection and checks every
// answer against the oracle.
type sender struct {
	d      *deployment
	client *http.Client
	buf    bytes.Buffer
	tally
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        openLoopSenders * 2,
			MaxIdleConnsPerHost: openLoopSenders * 2,
		},
	}
}

// query sends pool query idx; since is the instant latency is measured
// from (the send time in a closed loop, the due time in an open loop).
func (s *sender) query(idx int, since time.Time) {
	s.attempted++
	resp, err := s.client.Post(s.d.url+"/query", "text/plain", strings.NewReader(s.d.data.pool[idx]))
	if err != nil {
		s.transport++
		return
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	switch {
	case err != nil:
		s.transport++
	case resp.StatusCode == http.StatusServiceUnavailable:
		s.shed++
	case resp.StatusCode != http.StatusOK:
		s.non200++
	case sha256.Sum256(s.buf.Bytes()) != s.d.oracle[idx].digest:
		s.mismatch++
	default:
		s.latMS = append(s.latMS, float64(done.Sub(since))/float64(time.Millisecond))
	}
}

// closedLoop runs `clients` senders for dur. Client k walks the stream
// from its own offset so the clients do not send the same query in step.
func closedLoop(d *deployment, hc *http.Client, clients int, dur time.Duration, skip int) *tally {
	stream := d.data.stream
	senders := make([]*sender, clients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for k := range senders {
		s := &sender{d: d, client: hc}
		senders[k] = s
		pos := skip + k*len(stream)/clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := pos; time.Now().Before(deadline); i++ {
				s.query(stream[i%len(stream)], time.Now())
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for _, s := range senders {
		total.merge(&s.tally)
	}
	return total
}

// openLoop makes request i due at start + i/rate. A dispatcher releases
// each request at its due time whatever the system is doing; a free sender
// takes it at once, or it waits for one. Latency counts from the due time,
// so a stall charges every request queued behind it, and how long after its
// due time each send began is kept as the generator's own lateness.
func openLoop(d *deployment, hc *http.Client, rate float64, dur time.Duration, skip int) *tally {
	stream := d.data.stream
	interval := time.Duration(float64(time.Second) / rate)
	n := int(float64(dur) / float64(interval))
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	// Room for the whole window: the dispatcher must never wait for a sender.
	released := make(chan int, n)
	go func() {
		// The Go scheduler wakes an idle sleeper up to a millisecond late,
		// more than a cache hit takes; a thread of its own in nanosleep(2)
		// is within 0.1 ms.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < n; i++ {
			if wait := time.Until(due(i)); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil) //nolint:errcheck // woken early only means sending early by less than a signal's worth
			}
			released <- i
		}
		close(released)
	}()
	senders := make([]*sender, openLoopSenders)
	var wg sync.WaitGroup
	for k := range senders {
		s := &sender{d: d, client: hc}
		senders[k] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				s.lateMS = append(s.lateMS, float64(time.Since(due(i)))/float64(time.Millisecond))
				s.query(stream[(skip+i)%len(stream)], due(i))
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for _, s := range senders {
		total.merge(&s.tally)
	}
	return total
}

// refresher rebuilds the materialized customers view once a second until
// stop is closed: the write beside cached-mix's reads. It returns each
// refresh's duration and how many failed.
func refresher(d *deployment, hc *http.Client, stop <-chan struct{}) (ms []float64, failed int) {
	tick := time.NewTicker(refreshEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return ms, failed
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := hc.Post(d.url+"/admin/refresh?schema=customers&token="+adminToken, "text/plain", nil)
		if err != nil {
			failed++
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // body is one status line
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			failed++
			continue
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
}

// measure warms the deployment up and then runs one window, bracketed by
// allocation counters. The load is the workload's own shape: a closed loop
// of one client per CPU, or for cached-mix the open loop beside the
// refresher. capacity replaces cached-mix's open loop with a closed loop of
// as many senders, which is how its rate was chosen (see -calibrate).
func measure(d *deployment, dur time.Duration, capacity bool) (*window, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	w := &window{clients: runtime.GOMAXPROCS(0)}
	cached := d.data.workload == wlCached
	if cached {
		w.clients = openLoopSenders
		if !capacity {
			w.rate = cachedMixRate
		}
	}

	load := func(dur time.Duration, skip int) *tally {
		if w.rate > 0 {
			return openLoop(d, hc, w.rate, dur, skip)
		}
		return closedLoop(d, hc, w.clients, dur, skip)
	}
	run := load
	if cached {
		// The refresher runs beside the load; its requests count too.
		run = func(dur time.Duration, skip int) *tally {
			stop, done := make(chan struct{}), make(chan struct{})
			var failed int
			go func() {
				defer close(done)
				w.refreshMS, failed = refresher(d, hc, stop)
			}()
			t := load(dur, skip)
			close(stop)
			<-done
			t.attempted += len(w.refreshMS) + failed
			t.non200 += failed
			return t
		}
	}

	warm := run(warmup, 0)
	if warm.attempted == 0 {
		return nil, fmt.Errorf("warm-up completed no request")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	t := run(dur, warm.attempted)
	w.elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	w.tally = *t
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	sort.Float64s(w.latMS)
	sort.Float64s(w.lateMS)
	return w, nil
}
