package algebra

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Select filters bindings by a predicate expression.
type Select struct {
	Input Operator
	Pred  xmlql.Expr

	ctx *Context
}

// Open implements Operator.
func (s *Select) Open(ctx *Context) error {
	s.ctx = ctx
	return s.Input.Open(ctx)
}

// Next implements Operator.
func (s *Select) Next() (Binding, error) {
	if s.ctx == nil {
		return nil, ErrNotOpen
	}
	for {
		b, err := s.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		v, err := Eval(s.ctx, s.Pred, b)
		if err != nil {
			return nil, err
		}
		if xmldm.Truthy(v) {
			return b, nil
		}
	}
}

// Close implements Operator.
func (s *Select) Close() error {
	s.ctx = nil
	return s.Input.Close()
}

// KeyPair is an equality predicate $Left = $Right turned into a join key:
// Left must be bound only by the join's left input and Right only by its
// right input, so the pair can be hashed and checked on the two rows
// before they are merged.
type KeyPair struct {
	Left, Right string
}

// HashJoin joins two binding streams on their shared variables (natural
// join) and on Pairs, the equality predicates the planner recognized as
// spanning the two inputs. The right input is built into a hash table
// on the first Next; the left streams. With no key it degenerates to a
// Cartesian product.
//
// A bucket hit is verified before merging: natural variables by Equal
// (mergeBindings), pairs by predicate semantics — Null on either side
// never matches, otherwise Compare == 0, which Hash is consistent with.
// Output is left-major with each left row's matches in right-input
// order, the sequence the cross product followed by a Select on the
// pairs would emit.
//
// Workers > 1 is the degree the join asks the context's scheduler for
// once its build side reaches joinParallelMin rows; granted more than
// one, it probes the left rows in slabs on that many goroutines
// (parallel.go). The output is byte-identical at every degree.
type HashJoin struct {
	Left, Right Operator
	// On lists the natural join variables; empty means "the shared
	// variables of the first left and right bindings", resolved lazily.
	On      []string
	Pairs   []KeyPair
	Workers int
	// Bind, when set, makes this a bind join: the right input is opened
	// only after the left input's keys have been shipped to it.
	Bind *Bind

	ctx       *Context
	vars      []string
	started   bool
	rightOpen bool
	right     []Binding
	// held are left rows pulled ahead of the probe — the one start reads
	// to resolve vars, or everything a bind join kept back while it
	// collected keys; nextLeft replays them before reading on.
	held     []Binding
	heldPos  int
	leftDone bool                 // the left input ended while being held
	bindKeys int                  // keys a bind join shipped; -1 when it fell back
	table    map[uint64][]Binding // serial build side
	pending  []Binding            // serial: matches of the current left row
	pos      int
	built    int        // build rows, for EXPLAIN after Close
	granted  int        // the degree the scheduler granted; 0 when none was asked for
	pool     *probePool // the parallel probe, when more than one worker was granted
	sp       obs.SpanRef
}

// Bind turns a HashJoin into a bind join. Instead of opening both inputs
// together, the join drains and holds its left input first, collects the
// distinct values of Key, and ships them to the right leaf before opening
// it, so the leaf can fetch only the rows those keys ask for. The join
// then builds and probes as always: the keys only narrow what the right
// side delivers, to a superset of every left row's partners, so the
// output sequence is the unbound join's.
type Bind struct {
	// Key is the left input's variable whose values are shipped.
	Key string
	// MaxKeys is the most distinct keys worth shipping. At one more the
	// join stops holding left rows back, asks the right side for
	// everything, and streams the rest of the left input.
	MaxKeys int
	// Rows is the right side's size when planned; EXPLAIN shows it beside
	// the key count.
	Rows int
	// Ship tells the right leaf what to fetch, before it is opened: the
	// distinct key texts in first-seen order, or whole (and no keys) for
	// everything. With nothing to ask for — no left row carries a key —
	// the right side is told so and never opened.
	Ship func(keys []string, whole bool)
}

// Open implements Operator. A bind join opens only its left input here;
// the right one waits for the keys.
func (j *HashJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	j.rightOpen = false
	if j.Bind == nil {
		if err := j.Right.Open(ctx); err != nil {
			j.Left.Close()
			return err
		}
		j.rightOpen = true
	}
	j.ctx = ctx
	j.vars = j.On
	j.started, j.leftDone = false, false
	j.right, j.held, j.heldPos, j.table, j.pending, j.pos, j.built = nil, nil, 0, nil, nil, 0, 0
	j.granted, j.pool, j.sp = 0, nil, obs.SpanRef{}
	return nil
}

// start drains the right side (a bind join first ships its keys and
// opens it), pulls the first left row to resolve the natural variables
// against it, builds the table and, past the gate, asks for its workers
// (fanOut). It runs on the consumer goroutine at the first Next.
func (j *HashJoin) start() error {
	j.started = true
	if j.Bind != nil {
		if err := j.shipKeys(); err != nil || !j.rightOpen {
			return err
		}
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		j.right = append(j.right, b)
	}
	j.built = len(j.right)
	if j.Bind == nil {
		first, err := j.Left.Next()
		if err != nil || first == nil {
			return err
		}
		j.held = []Binding{first}
	}
	if len(j.vars) == 0 {
		j.vars = sharedVars(j.held[0], j.right)
	}
	j.table = make(map[uint64][]Binding, len(j.right))
	for _, r := range j.right {
		k := j.keyOf(r, true)
		j.table[k] = append(j.table[k], r)
	}
	j.fanOut()
	return nil
}

// shipKeys is the first half of a bind join's start: hold the left input
// back while collecting its distinct keys, ship them, and open the right
// side on what was shipped. A left row without the key (Null or unbound)
// joins nothing and asks for nothing. One past MaxKeys, or at a key
// keyText cannot ship, the join falls back to the whole right side and
// stops holding: the rows held so far are replayed, the rest stream.
func (j *HashJoin) shipKeys() error {
	b := j.Bind
	keys := make([]string, 0, 16)
	seen := make(map[string]struct{}, 16)
	whole := false
	for !whole {
		l, err := j.Left.Next()
		if err != nil {
			return err
		}
		if l == nil {
			j.leftDone = true
			break
		}
		j.held = append(j.held, l)
		v, _ := l.Get(b.Key)
		if isNull(v) {
			continue
		}
		text, ok := keyText(v)
		if _, dup := seen[text]; ok && dup {
			continue
		}
		if !ok || len(keys) == b.MaxKeys {
			whole = true
			break
		}
		seen[text] = struct{}{}
		keys = append(keys, text)
	}
	if whole {
		keys = nil
		j.bindKeys = -1
		atomic.AddInt64(&j.ctx.stats.BindFallbacks, 1)
	} else {
		j.bindKeys = len(keys)
		atomic.AddInt64(&j.ctx.stats.BindJoins, 1)
	}
	b.Ship(keys, whole)
	if !whole && len(keys) == 0 {
		return nil
	}
	if err := j.Right.Open(j.ctx); err != nil {
		return err
	}
	j.rightOpen = true
	return nil
}

// keyText is the text a bind join ships for a left key: a string's own
// text or an element's content, "" included, which finds the NULL cells
// the source reads as "". ok is false for the atom kinds whose text
// leaves their comparison class (true is the number 1, "true" is a
// string), since that text would not find every row Compare matches the
// value to.
func keyText(v xmldm.Value) (text string, ok bool) {
	switch x := v.(type) {
	case xmldm.String:
		return string(x), true
	case *xmldm.Node:
		return x.Text(), true
	}
	return "", false
}

// keyOf hashes a row's join key: the natural variables (PartitionKey),
// then each pair's variable for the row's side.
func (j *HashJoin) keyOf(b Binding, rightSide bool) uint64 {
	h := PartitionKey(b, j.vars)
	for _, p := range j.Pairs {
		if rightSide {
			h = foldVar(h, b, p.Right)
		} else {
			h = foldVar(h, b, p.Left)
		}
	}
	return h
}

// probe appends to outs the merge of l with every row of its bucket
// that really matches, in bucket (right-input) order.
func (j *HashJoin) probe(table map[uint64][]Binding, l Binding, outs []Binding) []Binding {
next:
	for _, r := range table[j.keyOf(l, false)] {
		for _, p := range j.Pairs {
			lv, _ := l.Get(p.Left)
			rv, _ := r.Get(p.Right)
			if isNull(lv) || isNull(rv) || xmldm.Compare(lv, rv) != 0 {
				continue next
			}
		}
		if m, ok := mergeBindings(l, r, j.vars); ok {
			outs = append(outs, m)
		}
	}
	return outs
}

func isNull(v xmldm.Value) bool { return v == nil || v.Kind() == xmldm.KindNull }

// nextLeft replays the held rows, then reads on.
func (j *HashJoin) nextLeft() (Binding, error) {
	if j.heldPos < len(j.held) {
		l := j.held[j.heldPos]
		j.heldPos++
		return l, nil
	}
	if j.leftDone {
		return nil, nil
	}
	return j.Left.Next()
}

// Next implements Operator.
func (j *HashJoin) Next() (Binding, error) {
	if j.ctx == nil {
		return nil, ErrNotOpen
	}
	if !j.started {
		if err := j.start(); err != nil {
			return nil, err
		}
	}
	if j.pool != nil {
		return j.pool.next()
	}
	if j.table == nil {
		return nil, nil // empty left, or no key to ask the right side for: nothing was built
	}
	for {
		if j.pos < len(j.pending) {
			b := j.pending[j.pos]
			j.pos++
			return b, nil
		}
		l, err := j.nextLeft()
		if err != nil || l == nil {
			return nil, err
		}
		j.pending, j.pos = j.probe(j.table, l, j.pending[:0]), 0
	}
}

// BufferedTuples reports the tuples held materialized (the built right
// side, the left rows a bind join kept back, and the pending output queue
// or merge buffer) for peak-memory instrumentation. The held rows count
// whole until Close: their slice is fixed once probing starts, so the
// poll never reads what the probe pool's producer writes.
func (j *HashJoin) BufferedTuples() int {
	n := len(j.right)
	if j.Bind != nil {
		n += len(j.held)
	}
	if j.pool != nil {
		return n + len(j.pool.cur)
	}
	return n + len(j.pending) - j.pos
}

// bindOutcome renders what a bind join did for EXPLAIN: the keys it
// shipped over the right side's planned size, "fallback" when it fetched
// the right side whole after all, "?" for the keys before it has run.
func (j *HashJoin) bindOutcome() string {
	switch {
	case !j.started:
		return fmt.Sprintf("?/%d", j.Bind.Rows)
	case j.bindKeys < 0:
		return "fallback"
	default:
		return fmt.Sprintf("%d/%d", j.bindKeys, j.Bind.Rows)
	}
}

// KeyString renders the join key for EXPLAIN: natural variables as $v,
// pairs as $l=$r; empty for a key not known before the join runs.
func (j *HashJoin) KeyString() string { return keyString(j.On, j.Pairs) }

func keyString(vars []string, pairs []KeyPair) string {
	keys := make([]string, 0, len(vars)+len(pairs))
	for _, v := range vars {
		keys = append(keys, "$"+v)
	}
	for _, p := range pairs {
		keys = append(keys, "$"+p.Left+"=$"+p.Right)
	}
	return strings.Join(keys, ", ")
}

// Close implements Operator. The right input is closed only if it was
// opened: a bind join that failed before or while opening it, or had no
// key to ask for, never did.
func (j *HashJoin) Close() error {
	// j.ctx doubles as the "already closed" marker: a second Close (a
	// defensive caller, or an error path that already tore down the tree)
	// must neither stop the pool twice nor unbalance the worker gauge.
	// j.pool stays set so WorkerStats remains readable.
	if j.pool != nil && j.ctx != nil {
		j.pool.finish(j.ctx)
		j.sp.Finish()
	}
	j.ctx = nil
	j.right, j.held, j.table, j.pending = nil, nil, nil, nil
	err := j.Left.Close()
	if j.rightOpen {
		j.rightOpen = false
		if err2 := j.Right.Close(); err == nil {
			err = err2
		}
	}
	return err
}

func sharedVars(l Binding, rights []Binding) []string {
	if len(rights) == 0 {
		return nil
	}
	var out []string
	for _, name := range l.Names() {
		if _, ok := rights[0].Get(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// mergeBindings combines l and r; on shared names the values must agree
// (callers pass the join vars, but non-join shared names are checked
// too, keeping the natural-join semantics sound). The merged fields are
// allocated once, at their final size, on the first name r adds; when r
// adds none the result is l itself.
func mergeBindings(l, r Binding, joinVars []string) (Binding, bool) {
	for _, v := range joinVars {
		lv, _ := l.Get(v)
		rv, ok := r.Get(v)
		if ok && !xmldm.Equal(lv, rv) {
			return nil, false
		}
	}
	fields := l.Fields() // l's own until r adds a name
next:
	for _, f := range r.Fields() {
		for _, have := range fields {
			if have.Name == f.Name {
				if !xmldm.Equal(have.Value, f.Value) {
					return nil, false
				}
				continue next
			}
		}
		if len(fields) == l.Len() {
			fields = append(make([]xmldm.Field, 0, l.Len()+r.Len()), fields...)
		}
		fields = append(fields, f)
	}
	if len(fields) == l.Len() {
		return l, true
	}
	return xmldm.NewTuple(fields...), true
}
