package algebra

import (
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// nestedLoop is the join the HashJoin properties compare against: every
// left row merged with every right row it agrees with on their shared
// variables, in left-major order, kept when pred (nil for none) holds on
// the merge. It merges with refMerge, not the join's mergeBindings, so a
// fault there shows as a difference.
func nestedLoop(ctx *Context, left, right []Binding, pred xmlql.Expr) ([]Binding, error) {
	var out []Binding
	for _, l := range left {
		for _, r := range right {
			m := refMerge(l, r)
			if m == nil {
				continue
			}
			if pred != nil {
				v, err := Eval(ctx, pred, m)
				if err != nil {
					return nil, err
				}
				if !xmldm.Truthy(v) {
					continue
				}
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// refMerge is l extended by each of r's fields l lacks, or nil when a
// name both bind has different values.
func refMerge(l, r Binding) Binding {
	m := l
	for _, f := range r.Fields() {
		v, ok := l.Get(f.Name)
		if !ok {
			m = m.With(f.Name, f.Value)
		} else if !xmldm.Equal(v, f.Value) {
			return nil
		}
	}
	return m
}
