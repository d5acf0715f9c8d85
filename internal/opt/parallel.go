// Parallelization pass: when Options.Parallelism > 1 the planner stamps
// that degree on the plan's hash joins — the operator that knows its
// build size when it starts and probes the left rows in slabs, merged
// back in input order, so a parallel plan's output is byte-identical to
// its serial twin's. A stamped degree is a grant, not an order: the join
// uses it only once its build side reaches the crossover measured for it
// (algebra's joinParallelMin, DESIGN §12), and EXPLAIN says when the gate
// held. Everything else runs as planned at every degree.
// The degree is not static configuration: the engine stamps
// Options.Parallelism per query, per rewrite, from the degree the
// shared inter-query scheduler (internal/sched) granted at that operator
// boundary — so concurrent queries divide a global worker budget instead
// of each claiming the configured maximum, and EXPLAIN's workers=N
// reflects the granted, not requested, degree.
package opt

import "repro/internal/algebra"

// parallelize sets Workers on every HashJoin under op; Select and
// bound-variable Match are the only other operators the planner puts
// above one.
func (p *Planner) parallelize(op algebra.Operator) {
	switch x := op.(type) {
	case *algebra.HashJoin:
		x.Workers = p.Opts.Parallelism
		p.parallelize(x.Left)
		p.parallelize(x.Right)
	case *algebra.Match:
		if x.SourceVar != "" {
			p.parallelize(x.Input)
		}
	case *algebra.Select:
		p.parallelize(x.Input)
	}
}
