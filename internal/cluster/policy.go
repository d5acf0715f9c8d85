package cluster

import (
	"fmt"
	"hash/fnv"
)

// Policy selects how the cluster routes a query to an instance. All
// policies route only among eligible instances — healthy, not draining,
// not removed, and (when capped) with a free concurrency slot — so a
// caller never queues behind one saturated instance while another
// idles.
type Policy int

const (
	// RoundRobin cycles through eligible instances.
	RoundRobin Policy = iota
	// LeastOutstanding picks the instance with the fewest outstanding
	// queries, counting admitted callers from the moment their slot is
	// granted (the old balancer counted only queries already executing,
	// so queued callers piled invisibly onto a saturated pick). Ties
	// rotate round-robin instead of always breaking toward instance 0.
	LeastOutstanding
	// PowerOfTwo samples two distinct eligible instances and takes the
	// less loaded — near-least-outstanding balance at O(1) cost, and
	// without the thundering-herd of every router agreeing on one
	// coldest instance.
	PowerOfTwo
	// CacheAffinity routes by rendezvous (highest-random-weight)
	// hashing on the normalized query text: a repeated query lands on
	// the same instance, whose result cache is warm. When that instance
	// is saturated or unhealthy the next-highest-weight instance takes
	// over (bounded spill), and when membership changes only the keys
	// owned by the changed instance move.
	CacheAffinity
)

// String names the policy as shown in Status and metrics.
func (p Policy) String() string {
	switch p {
	case LeastOutstanding:
		return "least-outstanding"
	case PowerOfTwo:
		return "power-of-two"
	case CacheAffinity:
		return "cache-affinity"
	default:
		return "round-robin"
	}
}

// ParsePolicy reads a policy name as accepted by the -route flag:
// "rr"/"round-robin", "least"/"least-outstanding" (also the old
// "least-loaded"), "p2c"/"power-of-two", "affinity"/"cache-affinity".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "least", "least-outstanding", "least-loaded":
		return LeastOutstanding, nil
	case "rr", "round-robin", "roundrobin":
		return RoundRobin, nil
	case "p2c", "power-of-two", "power2":
		return PowerOfTwo, nil
	case "affinity", "cache-affinity":
		return CacheAffinity, nil
	default:
		return 0, fmt.Errorf("cluster: unknown routing policy %q (want rr, least, p2c, or affinity)", s)
	}
}

// pickLocked selects an eligible instance per the policy, or nil when
// none has a free slot. Caller holds c.mu and increments active.
func (c *Cluster) pickLocked(key string) *member {
	n := len(c.members)
	eligible := func(m *member) bool {
		if m.removed || m.draining {
			return false
		}
		return c.cfg.Capacity <= 0 || m.active < c.cfg.Capacity
	}
	switch c.cfg.Policy {
	case LeastOutstanding:
		var best *member
		// Scan from the rotating offset so equal loads spread instead
		// of always settling on instance 0.
		for i := 0; i < n; i++ {
			m := c.members[(c.tie+i)%n]
			if !eligible(m) {
				continue
			}
			if best == nil || m.active < best.active {
				best = m
			}
		}
		if best != nil {
			c.tie = (best.id + 1) % n
		}
		return best
	case PowerOfTwo:
		var sample [2]*member
		k := 0
		// Reservoir-sample two distinct eligible members.
		seen := 0
		for _, m := range c.members {
			if !eligible(m) {
				continue
			}
			seen++
			if k < 2 {
				sample[k] = m
				k++
				continue
			}
			if j := int(c.rng.next() % uint64(seen)); j < 2 {
				sample[j] = m
			}
		}
		switch k {
		case 0:
			return nil
		case 1:
			return sample[0]
		}
		if sample[1].active < sample[0].active {
			return sample[1]
		}
		if sample[1].active == sample[0].active && c.rng.next()&1 == 1 {
			// Fair coin on ties: the reservoir fills sample[0] first, so
			// always preferring it would starve the instance that only
			// ever lands in sample[1].
			return sample[1]
		}
		return sample[0]
	case CacheAffinity:
		var best *member
		var bestW uint64
		for _, m := range c.members {
			if !eligible(m) {
				continue
			}
			if w := rendezvousWeight(key, m.name); best == nil || w > bestW {
				best, bestW = m, w
			}
		}
		return best
	default: // RoundRobin
		for i := 0; i < n; i++ {
			m := c.members[(c.rr+i)%n]
			if eligible(m) {
				c.rr = (m.id + 1) % n
				return m
			}
		}
		return nil
	}
}

// rendezvousWeight scores (key, instance) for highest-random-weight
// hashing: each instance gets an independent pseudo-random weight per
// key, and the key's owner is the maximum — so removing an instance
// reassigns only the keys it owned.
func rendezvousWeight(key, instance string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(instance))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// AffinityOwner reports which instance the policy would route key to
// when all instances are eligible (tests and capacity planning).
func (c *Cluster) AffinityOwner(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestW := -1, uint64(0)
	for _, m := range c.members {
		if w := rendezvousWeight(key, m.name); best < 0 || w > bestW {
			best, bestW = m.id, w
		}
	}
	return best
}

// splitmix is a tiny deterministic PRNG (SplitMix64) for the
// power-of-two sampler; seeded, so experiment runs reproduce.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{state: seed} }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
