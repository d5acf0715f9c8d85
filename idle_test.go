package nimble

import "testing"

// assertIdle fails the test unless every release obligation of sys has
// been met: no admission slot held and no caller queued at the cluster,
// no worker grant outstanding at the scheduler, no parallel worker
// running, and no breaker left half-open. A breaker enters half-open
// only in Allow, which also hands out the probe token, so half-open at
// idle means a probe token was never resolved. Call it once the test's
// traffic has returned.
func assertIdle(t testing.TB, sys *System) {
	t.Helper()
	c := sys.Cluster()
	for i := 0; i < c.Instances(); i++ {
		if n := c.InFlight(i); n != 0 {
			t.Errorf("instance %d holds %d admission slots at idle", i, n)
		}
	}
	if n := c.Queued(); n != 0 {
		t.Errorf("%d callers still queued for admission at idle", n)
	}
	if snap := sys.Scheduler().Snap(); snap.Granted != 0 || snap.Queries != 0 || snap.Free != snap.Budget {
		t.Errorf("scheduler not idle: %+v", snap)
	}
	if v := sys.Metrics().Gauge("nimble_parallel_workers").Value(); v != 0 {
		t.Errorf("nimble_parallel_workers = %v at idle, want 0", v)
	}
	for src, state := range sys.BreakerStates() {
		if state == "half-open" {
			t.Errorf("breaker %s is half-open at idle: its probe token was never resolved", src)
		}
	}
}
