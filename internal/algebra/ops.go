package algebra

import (
	"sort"
	"strings"

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

// Project narrows each binding to the named variables (missing ones
// become Null), shrinking tuples that flow across operator boundaries.
type Project struct {
	Input Operator
	Vars  []string

	ctx *Context
}

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	p.ctx = ctx
	return p.Input.Open(ctx)
}

// Next implements Operator.
func (p *Project) Next() (Binding, error) {
	if p.ctx == nil {
		return nil, ErrNotOpen
	}
	b, err := p.Input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	return b.Project(p.Vars...), nil
}

// Close implements Operator.
func (p *Project) Close() error {
	p.ctx = nil
	return p.Input.Close()
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
// Workers > 1 runs the partitioned build and probe in parallel.go over
// the same keys; the output is byte-identical at every degree.
type HashJoin struct {
	Left, Right Operator
	// On lists the natural join variables; empty means "the shared
	// variables of the first left and right bindings", resolved lazily.
	On      []string
	Pairs   []KeyPair
	Workers int

	ctx     *Context
	vars    []string
	started bool
	right   []Binding
	first   Binding              // the left row start pulled to resolve vars
	table   map[uint64][]Binding // serial build side
	pending []Binding            // serial: matches of the current left row
	pos     int
	fan     *fanout // the probe pool, when Workers > 1
	sp      traceSpan
}

// Open implements Operator.
func (j *HashJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		j.Left.Close()
		return err
	}
	j.ctx = ctx
	j.vars = j.On
	j.started = false
	j.right, j.first, j.table, j.pending, j.pos, j.fan = nil, nil, nil, nil, 0, nil
	return nil
}

// start drains the right side, pulls the first left row to resolve the
// natural variables against it, and builds the table (or, with Workers >
// 1, the partitioned tables and the probe pool). It runs on the
// consumer goroutine at the first Next.
func (j *HashJoin) start() error {
	j.started = true
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
	first, err := j.Left.Next()
	if err != nil || first == nil {
		return err
	}
	j.first = first
	if len(j.vars) == 0 {
		j.vars = sharedVars(first, j.right)
	}
	if j.Workers > 1 {
		j.startParallel()
		return nil
	}
	j.table = make(map[uint64][]Binding, len(j.right))
	for _, r := range j.right {
		k := j.keyOf(r, true)
		j.table[k] = append(j.table[k], r)
	}
	return nil
}

// keyOf hashes a row's join key: the natural variables (PartitionKey,
// so routing and buckets agree), then each pair's variable for the
// row's side.
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

// nextLeft yields the row start already pulled, then the rest.
func (j *HashJoin) nextLeft() (Binding, error) {
	if l := j.first; l != nil {
		j.first = nil
		return l, nil
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
	if j.fan != nil {
		return j.fan.next()
	}
	if j.table == nil {
		return nil, nil // empty left: nothing was built
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
// side plus the pending output queue or merge buffer) for peak-memory
// instrumentation.
func (j *HashJoin) BufferedTuples() int {
	if j.fan != nil {
		return len(j.right) + j.fan.buffered()
	}
	return len(j.right) + len(j.pending) - j.pos
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

// Close implements Operator.
func (j *HashJoin) Close() error {
	// j.ctx doubles as the "already closed" marker, as in Exchange.Close:
	// a second Close must neither stop the pool twice nor unbalance the
	// worker gauge. j.fan stays set so WorkerStats remains readable.
	if j.fan != nil && j.ctx != nil {
		j.fan.finish(j.ctx)
		if j.sp != nil {
			j.sp.Finish()
			j.sp = nil
		}
	}
	j.ctx = nil
	j.right, j.first, j.table, j.pending = nil, nil, nil, nil
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
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

// NestedLoopJoin joins with an arbitrary predicate; it materializes the
// right side and evaluates Pred on each concatenated pair. Used when no
// equality join variables exist.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        xmlql.Expr // nil means cross product

	ctx     *Context
	right   []Binding
	cur     Binding
	rightIx int
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		j.Left.Close()
		return err
	}
	j.ctx = ctx
	j.right = nil
	j.cur = nil
	j.rightIx = 0
	for {
		b, err := j.Right.Next()
		if err != nil {
			j.Left.Close()
			j.Right.Close()
			return err
		}
		if b == nil {
			break
		}
		j.right = append(j.right, b)
	}
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (Binding, error) {
	if j.ctx == nil {
		return nil, ErrNotOpen
	}
	for {
		if j.cur == nil {
			l, err := j.Left.Next()
			if err != nil || l == nil {
				return nil, err
			}
			j.cur = l
			j.rightIx = 0
		}
		for j.rightIx < len(j.right) {
			r := j.right[j.rightIx]
			j.rightIx++
			m, ok := mergeBindings(j.cur, r, nil)
			if !ok {
				continue
			}
			if j.Pred != nil {
				v, err := Eval(j.ctx, j.Pred, m)
				if err != nil {
					return nil, err
				}
				if !xmldm.Truthy(v) {
					continue
				}
			}
			return m, nil
		}
		j.cur = nil
	}
}

// BufferedTuples reports the materialized right side.
func (j *NestedLoopJoin) BufferedTuples() int { return len(j.right) }

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.ctx = nil
	j.right = nil
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Union concatenates binding streams in order (XML results are ordered,
// so union is append, not set union; follow with Distinct for set
// semantics).
type Union struct {
	Inputs []Operator

	ctx *Context
	cur int
}

// Open implements Operator.
func (u *Union) Open(ctx *Context) error {
	for i, in := range u.Inputs {
		if err := in.Open(ctx); err != nil {
			for _, prev := range u.Inputs[:i] {
				prev.Close()
			}
			return err
		}
	}
	u.ctx = ctx
	u.cur = 0
	return nil
}

// Next implements Operator.
func (u *Union) Next() (Binding, error) {
	if u.ctx == nil {
		return nil, ErrNotOpen
	}
	for u.cur < len(u.Inputs) {
		b, err := u.Inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *Union) Close() error {
	u.ctx = nil
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SortKey is one ordering key for Sort.
type SortKey struct {
	Expr xmlql.Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys; ties
// preserve input order (stable), which preserves document order among
// equal keys — the paper's §4 document-order requirement.
type Sort struct {
	Input Operator
	Keys  []SortKey

	ctx    *Context
	sorted []Binding
	pos    int
}

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	s.ctx = ctx
	s.sorted = nil
	s.pos = 0
	for {
		b, err := s.Input.Next()
		if err != nil {
			s.Input.Close()
			return err
		}
		if b == nil {
			break
		}
		s.sorted = append(s.sorted, b)
	}
	var evalErr error
	sort.SliceStable(s.sorted, func(i, j int) bool {
		for _, k := range s.Keys {
			vi, err := Eval(ctx, k.Expr, s.sorted[i])
			if err != nil {
				evalErr = err
				return false
			}
			vj, err := Eval(ctx, k.Expr, s.sorted[j])
			if err != nil {
				evalErr = err
				return false
			}
			c := xmldm.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return evalErr
}

// Next implements Operator.
func (s *Sort) Next() (Binding, error) {
	if s.ctx == nil {
		return nil, ErrNotOpen
	}
	if s.pos >= len(s.sorted) {
		return nil, nil
	}
	b := s.sorted[s.pos]
	s.pos++
	return b, nil
}

// BufferedTuples reports the materialized sort buffer.
func (s *Sort) BufferedTuples() int { return len(s.sorted) }

// Close implements Operator.
func (s *Sort) Close() error {
	s.ctx = nil
	s.sorted = nil
	return s.Input.Close()
}

// Distinct drops bindings equal to an earlier one.
type Distinct struct {
	Input Operator

	ctx  *Context
	seen map[uint64][]Binding
	n    int // tuples retained in seen
}

// Open implements Operator.
func (d *Distinct) Open(ctx *Context) error {
	d.ctx = ctx
	d.seen = make(map[uint64][]Binding)
	d.n = 0
	return d.Input.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next() (Binding, error) {
	if d.ctx == nil {
		return nil, ErrNotOpen
	}
	for {
		b, err := d.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		h := xmldm.Hash(b)
		dup := false
		for _, prev := range d.seen[h] {
			if xmldm.Equal(prev, b) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], b)
		d.n++
		return b, nil
	}
}

// BufferedTuples reports the tuples retained for duplicate detection.
func (d *Distinct) BufferedTuples() int { return d.n }

// Close implements Operator.
func (d *Distinct) Close() error {
	d.ctx = nil
	d.seen = nil
	return d.Input.Close()
}

// Limit stops after N bindings.
type Limit struct {
	Input Operator
	N     int

	ctx   *Context
	count int
}

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	l.ctx = ctx
	l.count = 0
	return l.Input.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next() (Binding, error) {
	if l.ctx == nil {
		return nil, ErrNotOpen
	}
	if l.count >= l.N {
		return nil, nil
	}
	b, err := l.Input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	l.count++
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error {
	l.ctx = nil
	return l.Input.Close()
}
