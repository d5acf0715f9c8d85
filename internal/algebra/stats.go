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
	// pattern tag, source name); Finalize fills it for an operator.
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

	// op is the operator the node describes, held by an instrumented
	// node until Finalize has described it.
	op Operator
}

// TotalDuration is the wall time across all three lifecycle phases.
func (n *ExplainNode) TotalDuration() time.Duration {
	if n == nil {
		return 0
	}
	return time.Duration(n.OpenNanos + n.NextNanos + n.CloseNanos)
}

// Finalize fills the derived fields across the tree: an instrumented
// node's Detail and a join's Workers from its operator, which the node
// then lets go, and RowsIn from the children's RowsOut. Call it once the
// plan has been drained (or has failed): an operator's detail is what
// running it settled, or what it was planned as if it never ran.
func (n *ExplainNode) Finalize() {
	if n == nil {
		return
	}
	if n.op != nil {
		n.Detail = describe(n.op)
		// A join's worker stats are complete once Close has stopped its
		// pool, and stay readable after it.
		if j, ok := n.op.(*HashJoin); ok {
			if s := j.WorkerStats(); len(s) > 0 {
				n.Workers = s
			}
		}
		n.op = nil
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

// nextSample is how often Instrumented reads the clock around Next: on
// the first call and every nextSample-th after it.
const nextSample = 16

// Instrumented wraps an operator, recording per-call statistics into its
// ExplainNode. It preserves the Operator contract exactly: Open/Next/
// Close delegate 1:1, so operator lifecycle invariants (opclose) hold
// through the wrapper. RowsOut and PeakBuffered are exact; NextNanos is
// an estimate, since timing every Next would cost two clock reads a row:
// each timed call counts for every call since the one timed before it.
type Instrumented struct {
	Inner Operator
	Node  *ExplainNode

	buf buffered // Inner's buffering view, nil when it has none
	// calls counts the Next calls, and timed is the count at the last
	// one timed.
	calls, timed int64
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
	i.calls++
	var b Binding
	var err error
	if (i.calls-1)%nextSample == 0 {
		start := time.Now()
		b, err = i.Inner.Next()
		i.Node.NextNanos += time.Since(start).Nanoseconds() * (i.calls - i.timed)
		i.timed = i.calls
	} else {
		b, err = i.Inner.Next()
	}
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
// shims and returns the wrapped tree plus its ExplainNode tree, whose
// details Finalize fills in once the plan has run. Instrumenting an
// already-instrumented tree is a no-op.
func Instrument(op Operator) (Operator, *ExplainNode) {
	if inst, ok := op.(*Instrumented); ok {
		return inst, inst.Node
	}
	node := &ExplainNode{Op: opName(op), op: op}
	for _, c := range children(op) {
		w, n := Instrument(*c)
		*c = w
		node.Children = append(node.Children, n)
	}
	w := &Instrumented{Inner: op, Node: node}
	w.buf, _ = op.(buffered)
	return w, node
}

// describe renders the operator-specific detail for an EXPLAIN line from
// the operator alone: a leaf's access path (a fragment scan's request, a
// source scan's label), then what it matches or filters on, then what
// running it settled.
func describe(op Operator) string {
	var parts []string
	switch x := op.(type) {
	case *FuncScan:
		if x.Detail != nil {
			parts = append(parts, x.Detail())
		}
	case *Match:
		if x.Label != "" {
			parts = append(parts, x.Label)
		}
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

// children lists an operator's inputs as the fields that hold them, so
// Instrument can wrap each in place. Instrument and CountOps reach
// inputs only through it: a kind missing here is a leaf to both, its
// inputs gone from EXPLAIN and from OperatorsRun.
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
