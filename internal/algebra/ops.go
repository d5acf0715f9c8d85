package algebra

import (
	"sort"

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

// HashJoin joins two binding streams on their shared variables (natural
// join). The right input is built into a hash table at Open; the left
// streams. With no shared variables it degenerates to a Cartesian
// product.
type HashJoin struct {
	Left, Right Operator
	// On lists the join variables; empty means "the shared variables of
	// the first left and right bindings", resolved lazily.
	On []string

	ctx     *Context
	table   map[uint64][]Binding
	right   []Binding
	vars    []string
	varsSet bool
	pending []Binding
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
	j.table = nil
	j.right = nil
	j.pending = nil
	j.vars = j.On
	j.varsSet = len(j.On) > 0
	return nil
}

func (j *HashJoin) buildRight() error {
	j.table = make(map[uint64][]Binding)
	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		j.right = append(j.right, b)
	}
}

func (j *HashJoin) keyOf(b Binding) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range j.vars {
		val, _ := b.Get(v)
		h = h*1099511628211 ^ xmldm.Hash(val)
	}
	return h
}

// Next implements Operator.
func (j *HashJoin) Next() (Binding, error) {
	if j.ctx == nil {
		return nil, ErrNotOpen
	}
	if j.table == nil {
		if err := j.buildRight(); err != nil {
			return nil, err
		}
	}
	for {
		if len(j.pending) > 0 {
			b := j.pending[0]
			j.pending = j.pending[1:]
			return b, nil
		}
		l, err := j.Left.Next()
		if err != nil || l == nil {
			return nil, err
		}
		if !j.varsSet {
			// Resolve shared variables from the first left binding and
			// the right bindings.
			j.vars = sharedVars(l, j.right)
			j.varsSet = true
		}
		if len(j.table) == 0 && len(j.right) > 0 {
			for _, r := range j.right {
				k := j.keyOf(r)
				j.table[k] = append(j.table[k], r)
			}
		}
		for _, r := range j.table[j.keyOf(l)] {
			if m, ok := mergeBindings(l, r, j.vars); ok {
				j.pending = append(j.pending, m)
			}
		}
	}
}

// BufferedTuples reports the tuples held materialized (the built right
// side plus the pending output queue) for peak-memory instrumentation.
func (j *HashJoin) BufferedTuples() int { return len(j.right) + len(j.pending) }

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.ctx = nil
	j.table = nil
	j.right = nil
	j.pending = nil
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
