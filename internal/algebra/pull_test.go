package algebra

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/xmldm"
)

// countingScan produces n bindings {i: k}, counting the ones produced
// and recording whether it was closed.
func countingScan(n int, produced *int, closed *bool) *FuncScan {
	return &FuncScan{
		OpenFn: func(*Context) (func() (Binding, error), error) {
			return func() (Binding, error) {
				if *produced >= n {
					return nil, nil
				}
				*produced++
				return xmldm.NewTuple(xmldm.Field{Name: "i", Value: xmldm.Int(int64(*produced - 1))}), nil
			}, nil
		},
		CloseFn: func() error {
			*closed = true
			return nil
		},
	}
}

// TestPullHandsBindingsAsProduced: Pull gives fn each binding as soon as
// the operator produces it, stops at fn's first error with the operator
// closed, and is recorded as Drain is; Drain is Pull collecting.
func TestPullHandsBindingsAsProduced(t *testing.T) {
	var produced int
	var closed bool
	root := obs.NewRootSpan("q", obs.TraceContext{})
	ctx := &Context{Trace: root}
	stop := errors.New("stop")
	n, err := Pull(ctx, countingScan(10, &produced, &closed), func(b Binding) error {
		if want := fmt.Sprintf("{i: %d}", produced-1); b.String() != want {
			t.Errorf("after %d produced, fn got %s, want %s", produced, b, want)
		}
		if produced == 4 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 3 || produced != 4 || !closed {
		t.Errorf("Pull = %d, %v; produced %d, closed %v; want 3, stop, 4, true", n, err, produced, closed)
	}
	sp := root.Tree().Children()[0]
	if got, _ := sp.Attr("bindings"); sp.Name() != "eval FuncScan" || got != "3" {
		t.Errorf("span %s bindings=%s, want eval FuncScan bindings=3", sp.Name(), got)
	}
	if _, ok := sp.Attr("error"); !ok {
		t.Error("the span does not record the error")
	}
	if s := ctx.Snapshot(); s.OperatorsRun != 1 || s.TuplesEmitted != 4 {
		t.Errorf("stats %+v, want one operator and 4 tuples", s)
	}

	produced, closed = 0, false
	all, err := Drain(&Context{}, countingScan(5, &produced, &closed))
	if err != nil || len(all) != 5 || !closed || all[4].String() != "{i: 4}" {
		t.Errorf("Drain = %v, %v; closed %v", all, err, closed)
	}
}
