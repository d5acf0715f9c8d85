package main

import (
	"context"
	"testing"

	"repro/internal/xmlparse"
)

// Self time is duration minus the part of the interval children cover:
// overlapping children count once, and a child is clipped to its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50}, // overlaps 2
		{ID: 4, Parent: 1, StartNS: 60, EndNS: 70},
		{ID: 5, Parent: 1, StartNS: 90, EndNS: 120}, // outlives its parent
		{ID: 6, Parent: 3, StartNS: 25, EndNS: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 10, 4: 10, 5: 30, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// The staged replay makes the same public calls core.Engine.run makes; its
// answer must be the engine's, byte for byte, on every workload.
func TestStagedReplayMatchesEngine(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		d, err := boot(name, 5, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runner := newRunner(d)
		seen := map[string]bool{}
		for _, idx := range []int{d.data.stream[0], len(d.data.pool) - 1} {
			src := d.data.pool[idx]
			res, err := d.sys.Engine(0).Query(ctx, src)
			if err != nil {
				t.Fatalf("%s: engine: %v", name, err)
			}
			want := xmlparse.SerializeString(res.Document(), 2)
			got, err := replay(ctx, d, runner, src, func(stage string, fn func()) { seen[stage] = true; fn() })
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if got.body != want {
				t.Errorf("%s: staged replay differs from Engine.Query for\n%s", name, src)
			}
			if len(res.Values) == 0 || got.rewrites != res.Stats.Rewrites || len(got.fetches) != res.Stats.Fetches {
				t.Errorf("%s: rows %d, rewrites %d vs %d, fetches %d vs %d", name,
					len(res.Values), got.rewrites, res.Stats.Rewrites, len(got.fetches), res.Stats.Fetches)
			}
		}
		for _, stage := range stageNames {
			if !seen[stage] && !(stage == "construct.sort" && name != wlJoin) {
				t.Errorf("%s: stage %s never ran", name, stage)
			}
		}
		d.close()
	}
}
