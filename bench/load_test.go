package main

import (
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// stubDeployment serves one fixed answer from handler; the oracle expects
// exactly that body.
func stubDeployment(t *testing.T, handler http.HandlerFunc) *deployment {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return &deployment{
		data:   &dataset{workload: wlCached, pool: []string{"q"}, stream: []int{0}},
		url:    ts.URL,
		oracle: []answer{{digest: sha256.Sum256([]byte("<results/>"))}},
	}
}

// While the system stalls, an open loop keeps to its schedule: once every
// sender is stuck the following requests start late, that lateness is
// reported, and their latency still counts from when they were due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	const rate = 1000.0
	var release time.Time // set before the first request is sent
	d := stubDeployment(t, func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(time.Until(release))
		w.Write([]byte("<results/>"))
	})
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	release = time.Now().Add(stall)
	got := openLoop(d, hc, rate, 300*time.Millisecond, 0)

	if got.failed() != 0 || got.attempted != 300 {
		t.Fatalf("attempted %d, failed %d; want 300, 0", got.attempted, got.failed())
	}
	sort.Float64s(got.lateMS)
	sort.Float64s(got.latMS)
	stallMS := float64(stall / time.Millisecond)
	// The first openLoopSenders requests go out on time and wait out the
	// stall; the next ones cannot start before it ends.
	if late := got.lateMS[len(got.lateMS)-1]; late < stallMS/2 {
		t.Errorf("largest lateness %.1f ms; want at least %.1f (senders were all stuck)", late, stallMS/2)
	}
	// Requests due during the stall but sent after it are charged the wait:
	// far more of them than there are senders took over a third of it.
	slow := 0
	for _, l := range got.latMS {
		if l > stallMS/3 {
			slow++
		}
	}
	if slow <= openLoopSenders {
		t.Errorf("%d requests slower than %.0f ms; want more than the %d senders", slow, stallMS/3, openLoopSenders)
	}
	if got.lateMS[0] < 0 {
		t.Errorf("a request was sent %.3f ms before it was due", -got.lateMS[0])
	}
}

// Wrong bodies, sheds and other statuses are failures of different kinds,
// and a failed request contributes no latency sample.
func TestSenderClassifiesFailures(t *testing.T) {
	responses := []struct {
		status int
		body   string
	}{
		{200, "<results/>"}, {200, `<results complete="false"/>`}, {503, "shed"}, {400, "bad"},
	}
	i := 0
	d := stubDeployment(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(responses[i].status)
		w.Write([]byte(responses[i].body))
		i++
	})
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	s := &sender{d: d, client: hc}
	for range responses {
		s.query(0, time.Now())
	}
	if s.attempted != 4 || s.mismatch != 1 || s.shed != 1 || s.non200 != 1 || len(s.latMS) != 1 {
		t.Errorf("tally = %+v; want 4 attempted, 1 mismatch, 1 shed, 1 non-200, 1 latency sample", s.tally)
	}
}

func TestClosedLoopSendsUntilDeadline(t *testing.T) {
	d := stubDeployment(t, func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("<results/>")) })
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	got := closedLoop(d, hc, 2, 100*time.Millisecond, 0)
	if got.attempted < 2 || got.failed() != 0 || len(got.latMS) != got.attempted {
		t.Errorf("attempted %d, failed %d, samples %d", got.attempted, got.failed(), len(got.latMS))
	}
}
