// Per-operator execution statistics: the EXPLAIN ANALYZE layer of the
// physical algebra. Because the system deliberately has no logical
// algebra (§3.1), the physical plan is the only artifact that can
// explain a query's behaviour — so every operator can be wrapped with an
// Instrumented shim that records rows in/out, Open/Next/Close wall time,
// and peak buffered tuples, producing an ExplainNode tree that renders
// as a pg-style EXPLAIN ANALYZE report.
package algebra

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/xmlql"
)

// ExplainNode is one operator's entry in an EXPLAIN tree. Counter fields
// are written by the single goroutine driving the operator (operators
// are single-consumer by contract) and must only be read after the plan
// has been drained.
type ExplainNode struct {
	// Op is the operator name ("HashJoin", "Match", …) or a synthetic
	// node name ("query", "rewrite[0]", "Fetch").
	Op string `json:"op"`
	// Detail describes the access path or predicate (SQL fragment,
	// pattern tag, source name).
	Detail string `json:"detail,omitempty"`
	// RowsIn is the total bindings consumed from children (filled by
	// Finalize as the sum of the children's RowsOut).
	RowsIn int64 `json:"rows_in"`
	// RowsOut is the bindings this operator produced.
	RowsOut int64 `json:"rows_out"`
	// OpenNanos / NextNanos / CloseNanos are wall time spent inside each
	// lifecycle phase, inclusive of the subtree (children run inside
	// their parent's Next, Volcano-style).
	OpenNanos  int64 `json:"open_ns"`
	NextNanos  int64 `json:"next_ns"`
	CloseNanos int64 `json:"close_ns"`
	// PeakBuffered is the largest number of tuples the operator held
	// materialized at once (hash tables, pending queues).
	PeakBuffered int `json:"peak_buffered,omitempty"`
	// Workers holds per-worker rows/busy-time for a HashJoin that probed
	// in parallel, captured at Close.
	Workers []WorkerStat `json:"workers,omitempty"`
	// Children mirror the operator tree.
	Children []*ExplainNode `json:"children,omitempty"`
}

// TotalDuration is the wall time across all three lifecycle phases.
func (n *ExplainNode) TotalDuration() time.Duration {
	if n == nil {
		return 0
	}
	return time.Duration(n.OpenNanos + n.NextNanos + n.CloseNanos)
}

// Finalize fills the derived fields (RowsIn from the children's RowsOut)
// across the tree. Call it once the plan has been drained.
func (n *ExplainNode) Finalize() {
	if n == nil {
		return
	}
	n.RowsIn = 0
	for _, c := range n.Children {
		c.Finalize()
		n.RowsIn += c.RowsOut
	}
}

// Walk visits the node and every descendant, depth first.
func (n *ExplainNode) Walk(fn func(*ExplainNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns the first node in the tree whose Op matches, or nil.
func (n *ExplainNode) Find(op string) *ExplainNode {
	var found *ExplainNode
	n.Walk(func(e *ExplainNode) {
		if found == nil && e.Op == op {
			found = e
		}
	})
	return found
}

// TreeLabel implements obs.TreeNode: one EXPLAIN line per operator.
func (n *ExplainNode) TreeLabel() string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(&b, " [%s]", n.Detail)
	}
	fmt.Fprintf(&b, " out=%d", n.RowsOut)
	if len(n.Children) > 0 {
		fmt.Fprintf(&b, " in=%d", n.RowsIn)
	}
	fmt.Fprintf(&b, " time=%.3fms", float64(n.TotalDuration())/1e6)
	if n.PeakBuffered > 0 {
		fmt.Fprintf(&b, " peak=%d", n.PeakBuffered)
	}
	if len(n.Workers) > 0 {
		// Render rows only: wall times differ run to run (which worker
		// probes which slab does too; the goldens scrub the split).
		rows := make([]string, len(n.Workers))
		for i, w := range n.Workers {
			rows[i] = fmt.Sprintf("%d", w.Rows)
		}
		fmt.Fprintf(&b, " workers=%d rows/worker=[%s]", len(n.Workers), strings.Join(rows, " "))
	}
	return b.String()
}

// TreeChildren implements obs.TreeNode.
func (n *ExplainNode) TreeChildren() []obs.TreeNode {
	out := make([]obs.TreeNode, len(n.Children))
	for i, c := range n.Children {
		out[i] = c
	}
	return out
}

// Render renders the tree as indented text — the EXPLAIN ANALYZE report
// printed by nimble-cli -explain and embedded in the slow-query log.
func (n *ExplainNode) Render() string {
	if n == nil {
		return ""
	}
	return obs.RenderTree(n)
}

// buffered is implemented by operators that materialize tuples (hash
// tables, pending-match queues); the instrumentation shim polls it to
// record peak memory pressure in tuples.
type buffered interface {
	BufferedTuples() int
}

// Instrumented wraps an operator, recording per-call statistics into its
// ExplainNode. It preserves the Operator contract exactly: Open/Next/
// Close delegate 1:1, so operator lifecycle invariants (opclose) hold
// through the wrapper.
type Instrumented struct {
	Inner Operator
	Node  *ExplainNode

	buf buffered // Inner's buffering view, nil when it has none
	// label is the planner's access-path label; it is kept only for an
	// operator whose detail running settles (a bind join's key count, the
	// request its right leaf sent, whether a leaf Match read its index,
	// a join's gate and granted degree), which Close describes again.
	label   string
	settles bool
}

// Open implements Operator.
func (i *Instrumented) Open(ctx *Context) error {
	start := time.Now()
	err := i.Inner.Open(ctx)
	i.Node.OpenNanos += time.Since(start).Nanoseconds()
	i.poll()
	return err
}

// Next implements Operator.
func (i *Instrumented) Next() (Binding, error) {
	start := time.Now()
	b, err := i.Inner.Next()
	i.Node.NextNanos += time.Since(start).Nanoseconds()
	if b != nil {
		i.Node.RowsOut++
	}
	i.poll()
	return b, err
}

// Close implements Operator.
func (i *Instrumented) Close() error {
	i.poll()
	start := time.Now()
	err := i.Inner.Close()
	i.Node.CloseNanos += time.Since(start).Nanoseconds()
	if i.settles {
		i.Node.Detail = describe(i.Inner, i.label)
	}
	// A join's worker stats are complete once Close has stopped its pool,
	// and stay readable after it.
	if j, ok := i.Inner.(*HashJoin); ok {
		if s := j.WorkerStats(); len(s) > 0 {
			i.Node.Workers = s
		}
	}
	return err
}

func (i *Instrumented) poll() {
	if i.buf == nil {
		return
	}
	if n := i.buf.BufferedTuples(); n > i.Node.PeakBuffered {
		i.Node.PeakBuffered = n
	}
}

// Instrument wraps op (and, recursively, its children) with statistics
// shims and returns the wrapped tree plus its ExplainNode tree. labels
// optionally attaches access-path descriptions to specific operators
// (the planner labels its leaves with the pushed-down SQL or the fetched
// source). Instrumenting an already-instrumented tree is a no-op.
func Instrument(op Operator, labels map[Operator]string) (Operator, *ExplainNode) {
	if inst, ok := op.(*Instrumented); ok {
		return inst, inst.Node
	}
	node := &ExplainNode{Op: opName(op), Detail: describe(op, labels[op])}
	for _, c := range children(op) {
		w, n := Instrument(*c, labels)
		*c = w
		node.Children = append(node.Children, n)
	}
	w := &Instrumented{Inner: op, Node: node}
	w.buf, _ = op.(buffered)
	switch x := op.(type) {
	case *HashJoin:
		w.settles = x.Bind != nil || x.Workers > 1
	case *FuncScan:
		w.settles = x.Detail != nil
	case *Match:
		w.settles = x.Index != nil
	}
	if w.settles {
		w.label = labels[op]
	}
	return w, node
}

// describe renders the operator-specific detail for an EXPLAIN line;
// label is the planner's access-path label, if it gave one.
func describe(op Operator, label string) string {
	var parts []string
	if label != "" {
		parts = append(parts, label)
	}
	switch x := op.(type) {
	case *FuncScan:
		if x.Detail != nil {
			parts = append(parts, x.Detail())
		}
	case *Match:
		d := "<" + x.Pattern.Tag.String() + ">"
		if x.SourceVar != "" {
			d += " in $" + x.SourceVar
		}
		parts = append(parts, d)
		if x.Index != nil {
			parts = append(parts, x.access())
		}
	case *Select:
		parts = append(parts, xmlql.ExprString(x.Pred))
	case *HashJoin:
		switch {
		case x.Workers <= 1:
		case !x.started:
			parts = append(parts, fmt.Sprintf("want=%d", x.Workers))
		case x.built < joinGate:
			// The gate held: no grant was asked for.
			parts = append(parts, fmt.Sprintf("serial n=%d<%d", x.built, joinGate))
		case x.granted > 0:
			parts = append(parts, fmt.Sprintf("workers=%d", x.granted))
			if x.granted < x.Workers {
				parts = append(parts, fmt.Sprintf("want=%d", x.Workers))
			}
		}
		if keys := x.KeyString(); keys != "" {
			parts = append(parts, "on "+keys)
		}
		if x.Bind != nil {
			parts = append(parts, "bind="+x.bindOutcome())
		}
	case *TupleScan:
		parts = append(parts, fmt.Sprintf("%d tuples", len(x.Tuples)))
	}
	return strings.Join(parts, " ")
}

// CountOps counts the operators in a tree (instrumentation shims are
// transparent: a wrapped tree counts its inner operators).
func CountOps(op Operator) int {
	if op == nil {
		return 0
	}
	if inst, ok := op.(*Instrumented); ok {
		return CountOps(inst.Inner)
	}
	n := 1
	for _, c := range children(op) {
		n += CountOps(*c)
	}
	return n
}

// Explain builds the ExplainNode tree for a plan without instrumenting
// it — the static (no ANALYZE) plan shape.
func Explain(op Operator, labels map[Operator]string) *ExplainNode {
	if inst, ok := op.(*Instrumented); ok {
		return inst.Node
	}
	node := &ExplainNode{Op: opName(op), Detail: describe(op, labels[op])}
	for _, c := range children(op) {
		node.Children = append(node.Children, Explain(*c, labels))
	}
	return node
}

// children lists an operator's inputs as the fields that hold them, so
// Instrument can wrap each in place. Instrument, CountOps and Explain
// reach inputs only through it: a kind missing here is a leaf to all
// three, its inputs gone from EXPLAIN and from OperatorsRun.
func children(op Operator) []*Operator {
	switch x := op.(type) {
	case *Select:
		return []*Operator{&x.Input}
	case *HashJoin:
		return []*Operator{&x.Left, &x.Right}
	case *Match:
		return []*Operator{&x.Input}
	}
	return nil
}
