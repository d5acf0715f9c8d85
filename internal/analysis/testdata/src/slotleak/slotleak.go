// Corpus for the slotleak analyzer: admission slots, breaker half-open
// probe tokens, and waiter queue entries that may leak on some path —
// plus the clean pairing idioms, including the correlated nil-receiver
// guard the exec fetch layer uses.
package slotleak

import (
	"container/list"
	"context"
	"errors"
)

// ---- admission slots ----

type slot struct{ n int }

type pool struct{ sem chan struct{} }

func (p *pool) acquire(ctx context.Context) (*slot, error) {
	select {
	case p.sem <- struct{}{}:
		return &slot{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *pool) release(s *slot, delta int) { <-p.sem; _ = s; _ = delta }

func leakOnShedPath(ctx context.Context, p *pool, shed bool) error {
	s, err := p.acquire(ctx) // want "slot \"s\" from p.acquire may not be released on every path"
	if err != nil {
		return err
	}
	if shed {
		return errors.New("shed") // slot leaks here
	}
	p.release(s, 0)
	return nil
}

func leakOnPanicPath(ctx context.Context, p *pool, bad bool) {
	s, err := p.acquire(ctx) // want "slot \"s\" from p.acquire may not be released on every path \(panic path\)"
	if err != nil {
		return
	}
	if bad {
		panic("invariant")
	}
	p.release(s, 0)
}

func cleanAllPaths(ctx context.Context, p *pool, shed bool) error {
	s, err := p.acquire(ctx)
	if err != nil {
		return err
	}
	if shed {
		p.release(s, -1)
		return errors.New("shed")
	}
	p.release(s, 0)
	return nil
}

func cleanDeferredClosure(ctx context.Context, p *pool) error {
	s, err := p.acquire(ctx)
	if err != nil {
		return err
	}
	defer func() { p.release(s, 0) }()
	return nil
}

func cleanHandoff(ctx context.Context, p *pool) (*slot, error) {
	s, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil // the caller owns the slot now
}

// ---- scheduler grants (g := s.Acquire(...) -> g.Release()) ----

type grant struct{ n int }

func (g *grant) Release()    {}
func (g *grant) Degree() int { return g.n }

type scheduler struct{}

func (s *scheduler) Acquire(desired int) *grant { return &grant{n: desired} }

func grantLeakOnErrorPath(s *scheduler, work func() error) error {
	g := s.Acquire(4) // want "grant \"g\" from s.Acquire may not be released on every path"
	if err := work(); err != nil {
		return err // grant leaks here
	}
	g.Release()
	return nil
}

func grantCleanDeferred(s *scheduler, work func() error) error {
	g := s.Acquire(4)
	defer g.Release()
	_ = g.Degree() // other methods on the grant are neutral
	return work()
}

func grantCleanAllPaths(s *scheduler, work func() error) error {
	g := s.Acquire(2)
	if err := work(); err != nil {
		g.Release()
		return err
	}
	g.Release()
	return nil
}

func grantHandoff(s *scheduler) *grant {
	g := s.Acquire(1)
	return g // the caller owns the grant now
}

// ---- breaker half-open probe tokens ----

type breaker struct{ state int }

func (b *breaker) Allow() (bool, bool) { return true, b.state == 1 }
func (b *breaker) Success()            {}
func (b *breaker) Failure()            {}

func probeLeakOnSuccess(b *breaker, work func() error) error {
	ok, probe := b.Allow() // want "half-open probe token from b.Allow may not be resolved on every path"
	if !ok {
		return errors.New("breaker open")
	}
	if err := work(); err != nil {
		if probe {
			b.Failure()
		}
		return err
	}
	return nil // forgot to resolve the probe on the success path
}

func probeDiscarded(b *breaker) bool {
	ok, _ := b.Allow() // want "probe result of b.Allow is discarded"
	return ok
}

func probeClean(b *breaker, work func() error) error {
	ok, probe := b.Allow()
	if !ok {
		return errors.New("breaker open")
	}
	err := work()
	if probe {
		if err != nil {
			b.Failure()
		} else {
			b.Success()
		}
	}
	return err
}

// The exec fetch idiom: the breaker may be nil, and acquisition and
// resolution sit under separate `br != nil` guards. Edge refinement on
// the receiver's nilness keeps the br == nil join path clean.
func probeCorrelatedGuard(br *breaker, work func() error) error {
	ok := true
	probe := false
	if br != nil {
		ok, probe = br.Allow()
		if !ok {
			return errors.New("breaker open")
		}
	}
	err := work()
	if br != nil {
		if err != nil {
			br.Failure()
			_ = probe
			return err
		}
		br.Success()
	}
	return err
}

// ---- waiter queue entries ----

func waiterLeakOnCancel(q *list.List, w any, cancel <-chan struct{}) error {
	elem := q.PushBack(w) // want "queue entry \"elem\" from q.PushBack may not be removed on every path"
	select {
	case <-cancel:
		return errors.New("cancelled") // entry stays queued forever
	default:
	}
	q.Remove(elem)
	return nil
}

func waiterClean(q *list.List, w any, cancel <-chan struct{}) error {
	elem := q.PushBack(w)
	select {
	case <-cancel:
		q.Remove(elem)
		return errors.New("cancelled")
	default:
	}
	q.Remove(elem)
	return nil
}

func waiterRetained(q *list.List, w any) *list.Element {
	elem := q.PushBack(w)
	return elem // retained by the caller, who will Remove it
}
