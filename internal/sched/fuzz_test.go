package sched

import "testing"

// FuzzGrantSequence feeds random acquire/release/cancel interleavings
// (including double releases) to a scheduler and asserts the accounting
// invariants after every operation: the budget is never exceeded,
// granted + free always equals the budget, a batch acquire never takes
// the last free slot, and once the sequence drains the pool is whole. It
// is the scheduler-side sibling of FuzzPartition in internal/algebra.
func FuzzGrantSequence(f *testing.F) {
	f.Add(uint8(4), []byte{0x00})
	f.Add(uint8(1), []byte{0x05, 0x12, 0x02, 0x03})
	f.Add(uint8(8), []byte{0x41, 0x42, 0x02, 0x43, 0x03, 0x02, 0x02})
	f.Add(uint8(2), []byte{0xff, 0xfe, 0xfd, 0x00, 0x01, 0x02, 0x03, 0x04})
	f.Fuzz(func(t *testing.T, rawBudget uint8, ops []byte) {
		budget := int(rawBudget)%8 + 1
		s := New(Config{Budget: budget})
		var live []*Grant
		for _, op := range ops {
			arg := int(op >> 2)
			free := s.Snap().Free
			switch op % 3 {
			case 0: // acquire interactive
				live = append(live, s.Acquire(arg%12, Interactive))
			case 1: // acquire batch
				live = append(live, s.Acquire(arg%12, Batch))
				if after := s.Snap().Free; free > 0 && after == 0 {
					t.Fatalf("batch acquire took the last free slot: %d → %d", free, after)
				}
			case 2: // release (cancel); sometimes double to probe idempotence
				if len(live) > 0 {
					i := arg % len(live)
					live[i].Release()
					if arg%2 == 0 {
						live[i].Release()
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			snap := s.Snap()
			if snap.Granted > snap.Budget {
				t.Fatalf("granted %d exceeds budget %d after op %#x", snap.Granted, snap.Budget, op)
			}
			if snap.Granted+snap.Free != snap.Budget {
				t.Fatalf("slots leaked or minted after op %#x: %+v", op, snap)
			}
			if snap.Granted < 0 || snap.Free < 0 {
				t.Fatalf("negative accounting after op %#x: %+v", op, snap)
			}
		}
		for _, g := range live {
			g.Release()
		}
		snap := s.Snap()
		if snap.Granted != 0 || snap.Queries != 0 || snap.Free != budget {
			t.Fatalf("drained scheduler not idle: %+v", snap)
		}
		// The freed pool must satisfy a maximal request in full, at once.
		g := s.Acquire(budget+1, Interactive)
		if g.Degree() != budget+1 {
			t.Fatalf("post-drain full acquire degree = %d, want %d", g.Degree(), budget+1)
		}
		g.Release()
	})
}
