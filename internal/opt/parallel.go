// Parallelization pass: when Options.Parallelism > 1 the planner stamps
// that degree on the plan's hash joins — the operator that knows its
// build size when it starts and probes the left rows in slabs, merged
// back in input order, so a parallel plan's output is byte-identical to
// its serial twin's. A stamped degree is a request, not a grant: the join
// asks the shared scheduler (internal/sched) for it only once its build
// side reaches the crossover measured for it (algebra's joinParallelMin,
// DESIGN §12), holds what it is granted while it probes, and EXPLAIN says
// which degree it ran at or that the gate held. Everything else runs as
// planned at every degree. The engine resolves its requested degree
// (0 = the scheduler's budget) before planning, so the stamp is the same
// for every rewrite of a query.
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
