package algebra

import (
	"strings"
	"testing"

	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// bindRow builds a one-variable binding.
func bindRow(name, val string) Binding {
	return xmldm.NewTuple().With(name, xmldm.String(val))
}

// joinFixture builds a two-scan natural join: 3 left rows and 2 right
// rows sharing variable k, matching on two of them.
func joinFixture() (*HashJoin, int) {
	left := &TupleScan{Tuples: []Binding{
		bindRow("k", "a").With("l", xmldm.String("1")),
		bindRow("k", "b").With("l", xmldm.String("2")),
		bindRow("k", "c").With("l", xmldm.String("3")),
	}}
	right := &TupleScan{Tuples: []Binding{
		bindRow("k", "a").With("r", xmldm.String("x")),
		bindRow("k", "b").With("r", xmldm.String("y")),
	}}
	return &HashJoin{Left: left, Right: right, On: []string{"k"}}, 2
}

// TestInstrumentedSamplesNextTime: the shim times 1 Next in nextSample,
// yet counts every row it hands on, and its time estimate is not zero.
func TestInstrumentedSamplesNextTime(t *testing.T) {
	const rows = 1000
	row := bindRow("x", "v")
	sink := 0
	op, node := Instrument(&FuncScan{OpenFn: func(*Context) (func() (Binding, error), error) {
		n := 0
		return func() (Binding, error) {
			if n == rows {
				return nil, nil
			}
			n++
			for i := 0; i < 1000; i++ { // a row's worth of work for the clock to see
				sink += i ^ n
			}
			return row, nil
		}, nil
	}})
	bs, err := Drain(&Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != rows || node.RowsOut != rows {
		t.Errorf("drained %d bindings, RowsOut = %d, want %d", len(bs), node.RowsOut, rows)
	}
	if node.NextNanos <= 0 {
		t.Errorf("NextNanos = %d (sink %d), want an estimate above 0", node.NextNanos, sink)
	}
}

func TestInstrumentRecordsRowsAndStructure(t *testing.T) {
	join, want := joinFixture()
	op, node := Instrument(join)
	bs, err := Drain(&Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != want {
		t.Fatalf("bindings = %d, want %d", len(bs), want)
	}
	if node.Op != "HashJoin" {
		t.Errorf("root op = %q", node.Op)
	}
	if node.RowsOut != int64(want) {
		t.Errorf("RowsOut = %d, want %d", node.RowsOut, want)
	}
	if len(node.Children) != 2 {
		t.Fatalf("children = %d", len(node.Children))
	}
	node.Finalize()
	// Rows in = the scans' combined output.
	if node.RowsIn != 5 {
		t.Errorf("RowsIn = %d, want 5", node.RowsIn)
	}
	if node.Children[0].Op != "TupleScan" || node.Children[0].RowsOut != 3 {
		t.Errorf("left child = %+v", node.Children[0])
	}
	if node.Children[1].RowsOut != 2 {
		t.Errorf("right child RowsOut = %d", node.Children[1].RowsOut)
	}
	// The join materializes its right input; peak must reflect it.
	if node.PeakBuffered < 2 {
		t.Errorf("PeakBuffered = %d, want >= 2", node.PeakBuffered)
	}
	if node.TotalDuration() <= 0 {
		t.Errorf("TotalDuration = %v", node.TotalDuration())
	}
	label := node.TreeLabel()
	for _, part := range []string{"HashJoin", "out=2", "in=5", "time="} {
		if !strings.Contains(label, part) {
			t.Errorf("label %q missing %q", label, part)
		}
	}
	if !strings.Contains(node.Render(), "TupleScan") {
		t.Errorf("render missing children:\n%s", node.Render())
	}
	if node.Detail != "on $k" || node.Children[0].Detail != "3 tuples" {
		t.Errorf("details %q, %q; want the join's key and the scan's size", node.Detail, node.Children[0].Detail)
	}
	if scan := node.Find("TupleScan"); scan != node.Children[0] {
		t.Errorf("Find(TupleScan) = %+v, want the left scan", scan)
	}
	if node.Find("Match") != nil {
		t.Error("Find(Match) found a node the plan does not hold")
	}
	// The finalized tree is handed to callers: it holds no operator.
	var visited int
	node.Walk(func(n *ExplainNode) {
		visited++
		if n.op != nil {
			t.Errorf("%s still holds its operator after Finalize", n.Op)
		}
	})
	if visited != 3 {
		t.Errorf("Walk visited %d nodes, want 3", visited)
	}
}

func TestInstrumentIdempotent(t *testing.T) {
	join, _ := joinFixture()
	op1, n1 := Instrument(join)
	op2, n2 := Instrument(op1)
	if op1 != op2 || n1 != n2 {
		t.Error("re-instrumenting must be a no-op")
	}
}

// TestInstrumentLabels: a leaf's access path comes from the operator
// alone — a source scan's Label, a fragment scan's Detail — and a leaf
// that never ran is described as planned.
func TestInstrumentLabels(t *testing.T) {
	match := &Match{Input: &Singleton{}, Pattern: &xmlql.ElemPattern{Tag: xmlql.TagTest{Name: "t"}}, Label: "fetch src"}
	scan := &FuncScan{Detail: func() string { return "pushdown src: SELECT 1" }}
	for _, tc := range []struct {
		op   Operator
		want string
	}{{match, "fetch src <t>"}, {scan, "pushdown src: SELECT 1"}} {
		_, node := Instrument(tc.op)
		node.Finalize()
		if node.Detail != tc.want {
			t.Errorf("%s: Detail = %q, want %q", node.Op, node.Detail, tc.want)
		}
	}
}

// TestInstrumentPeakBufferedDistinct: the shim's poll sees a join's
// built right side plus the matches still pending for the current left
// row. Every row shares one key, so after the first match of a left row
// the join holds its 3 right rows and 2 more matches: 5, not the right
// side's 3.
func TestInstrumentPeakBufferedDistinct(t *testing.T) {
	left := &TupleScan{Tuples: []Binding{
		bindRow("k", "a").With("l", xmldm.String("1")),
		bindRow("k", "a").With("l", xmldm.String("2")),
	}}
	right := &TupleScan{Tuples: []Binding{
		bindRow("k", "a").With("r", xmldm.String("x")),
		bindRow("k", "a").With("r", xmldm.String("y")),
		bindRow("k", "a").With("r", xmldm.String("z")),
	}}
	op, node := Instrument(&HashJoin{Left: left, Right: right, On: []string{"k"}})
	bs, err := Drain(&Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 6 {
		t.Fatalf("bindings = %d", len(bs))
	}
	if node.PeakBuffered != 5 {
		t.Errorf("PeakBuffered = %d, want 5 (3 built right rows, 2 pending matches)", node.PeakBuffered)
	}
}

func TestCountOps(t *testing.T) {
	join, _ := joinFixture()
	if n := CountOps(join); n != 3 {
		t.Errorf("CountOps = %d, want 3", n)
	}
	wrapped, _ := Instrument(join)
	if n := CountOps(wrapped); n != 3 {
		t.Errorf("CountOps(instrumented) = %d, want 3 (shims are transparent)", n)
	}
}

func TestDrainRecordsContextStats(t *testing.T) {
	join, _ := joinFixture()
	ctx := &Context{}
	if _, err := Drain(ctx, join); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Snapshot()
	if snap.OperatorsRun != 3 {
		t.Errorf("OperatorsRun = %d, want 3", snap.OperatorsRun)
	}
	if snap.DrainNanos <= 0 {
		t.Errorf("DrainNanos = %d, want > 0", snap.DrainNanos)
	}
}
