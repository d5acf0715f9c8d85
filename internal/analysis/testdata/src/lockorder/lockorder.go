// Corpus for the lockorder analyzer: self-deadlocks, direct and
// call-transitive acquisition cycles, and the clean idioms that must
// stay quiet (consistent order, sequential reacquisition, two instances
// of one type, read locks).
package lockorder

import "sync"

// ---- flagged: self-deadlock ----

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) double() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want "acquired while already held by this function"
	s.n++
	s.mu.Unlock()
}

// ---- flagged: direct lock-order cycle ----

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func abOrder(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "lock-order cycle: lockorder.A.mu -> lockorder.B.mu, lockorder.B.mu -> lockorder.A.mu"
	b.mu.Unlock()
}

func baOrder(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// ---- flagged: cycle through a call made while holding a lock ----

type C struct {
	mu sync.Mutex
	d  *D
}

type D struct{ mu sync.Mutex }

func lockD(d *D) {
	d.mu.Lock()
	d.mu.Unlock()
}

func (c *C) nested() {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockD(c.d) // want "lock-order cycle: lockorder.C.mu -> lockorder.D.mu \(via lockorder.lockD\), lockorder.D.mu -> lockorder.C.mu"
}

func (d *D) thenC(c *C) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// ---- clean ----

// Consistent order everywhere: E before F in both functions.
type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

func ef1(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.mu.Lock()
	f.mu.Unlock()
}

func ef2(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

// Sequential reacquisition is not nesting.
func (s *S) sequential() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.mu.Lock()
	s.n--
	s.mu.Unlock()
}

// Two instances of one type: same lock class, different receivers — a
// legitimate (if order-sensitive) pattern, not a self-deadlock.
func merge(x, y *S) {
	x.mu.Lock()
	y.mu.Lock()
	y.n += x.n
	y.mu.Unlock()
	x.mu.Unlock()
}

// A branch that releases before the join: the must-analysis drops the
// lock from the held set, so the later Lock is a fresh acquisition.
func (s *S) branchy(quick bool) {
	s.mu.Lock()
	if quick {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
}

// Read locks: RLock nesting under RLock on another class is ordinary
// ordering (covered above); re-RLocking the same instance is legal for
// sync.RWMutex, so only write-mode reacquisition is flagged.
type R struct {
	mu sync.RWMutex
	m  map[string]int
}

func (r *R) get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

// Package-level mutex: class is the package variable.
var registryMu sync.Mutex

var registry = map[string]int{}

func register(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = 1
}

// ---- flagged: re-acquisition one call away ----

// Set's snapshot reads each entry through get, which locks s.mu again:
// the same instance, one call away, so it deadlocks.
type Set struct {
	mu sync.Mutex
	m  map[string]int
}

func (s *Set) get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *Set) snapshot() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for k := range s.m {
		out = append(out, s.get(k)) // want "mutex lockorder.Set.mu is acquired while already held by this function: lockorder.Set.get locks it again"
	}
	return out
}

// ---- clean: one call away on a second instance ----

// copyInto holds x.mu and calls y.get, which locks y.mu: two instances of
// one type, as in merge above, not a re-acquisition.
func copyInto(x, y *Set) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.m["k"] = y.get("k")
}
