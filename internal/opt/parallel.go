// Parallelization pass: after a plan is built, the planner gives its hot
// operators a degree (and lifts per-tuple chains into exchanges) when
// Options.Parallelism > 1.
// The degree is not static configuration: the engine stamps
// Options.Parallelism per query, per rewrite, from the degree the
// shared inter-query scheduler (internal/sched) granted at that operator
// boundary — so concurrent queries divide a global worker budget instead
// of each claiming the configured maximum, and EXPLAIN's workers=N
// reflects the granted, not requested, degree.
// Hash joins get Workers set (partitioned build+probe, routed by
// join-key hash so equal keys co-locate); maximal chains of per-tuple
// stages — Select, Project, Match over a bound variable — are lifted
// into a round-robin Exchange whose workers each run a private clone of
// the chain; leaf Matches fan their candidate elements across workers.
// Every replacement merges in input order, so a parallel plan's output
// is byte-identical to its serial twin — the determinism guarantee that
// lets Sort, Limit, and the top-level construct ignore parallelism.
//
// Selects whose predicate contains an aggregate stay serial: AggExpr
// evaluation runs a correlated subquery through the engine's
// SubqueryEval, which mutates per-query state (the trace span) that is
// not safe to share across workers.
package opt

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/xmlql"
)

// parallelize rewrites op (and its subtree) for the configured degree of
// parallelism, labeling the new exchange operators for EXPLAIN.
func (p *Planner) parallelize(plan *Plan, op algebra.Operator) algebra.Operator {
	n := p.Opts.Parallelism
	stages, below := stageChain(op)
	if len(stages) > 0 {
		ex := &algebra.Exchange{
			Input:   p.parallelize(plan, below),
			Workers: n,
			Build:   stageBuilder(stages),
		}
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = stageName(s)
		}
		plan.label(ex, "runs "+strings.Join(names, "→"))
		return ex
	}
	switch x := op.(type) {
	case *algebra.HashJoin:
		x.Left = p.parallelize(plan, x.Left)
		x.Right = p.parallelize(plan, x.Right)
		x.Workers = n
		return x
	case *algebra.Select: // aggregate-bearing: keep serial, recurse below
		x.Input = p.parallelize(plan, x.Input)
		return x
	case *algebra.Match:
		if x.SourceVar == "" {
			// Source-scan leaf: fan its candidate elements out instead
			// of exchanging (there is no tuple stream below to split).
			x.Workers = n
			return x
		}
		x.Input = p.parallelize(plan, x.Input)
		return x
	default:
		// FuncScan, Singleton, TupleScan: leaves stay as they are.
		return op
	}
}

// stageChain collects the maximal top-down chain of per-tuple,
// order-preserving stages starting at op, returning the chain and the
// first operator below it. An empty chain means op itself is not a
// parallelizable stage.
func stageChain(op algebra.Operator) ([]algebra.Operator, algebra.Operator) {
	var stages []algebra.Operator
	for {
		switch x := op.(type) {
		case *algebra.Select:
			if exprHasAgg(x.Pred) {
				return stages, op
			}
			stages = append(stages, x)
			op = x.Input
		case *algebra.Project:
			stages = append(stages, x)
			op = x.Input
		case *algebra.Match:
			if x.SourceVar == "" {
				return stages, op
			}
			stages = append(stages, x)
			op = x.Input
		default:
			return stages, op
		}
	}
}

// stageBuilder returns the Exchange Build function: given a worker's
// private source it reconstructs the stage chain bottom-up with fresh
// operator instances. The originals serve only as descriptors — their
// exported fields (predicates, patterns, variable lists) are read-only
// under evaluation, so sharing them across workers is safe.
func stageBuilder(stages []algebra.Operator) func(src algebra.Operator) algebra.Operator {
	return func(src algebra.Operator) algebra.Operator {
		out := src
		for i := len(stages) - 1; i >= 0; i-- {
			switch s := stages[i].(type) {
			case *algebra.Select:
				out = &algebra.Select{Input: out, Pred: s.Pred}
			case *algebra.Project:
				out = &algebra.Project{Input: out, Vars: s.Vars}
			case *algebra.Match:
				out = &algebra.Match{Input: out, Pattern: s.Pattern, SourceVar: s.SourceVar}
			}
		}
		return out
	}
}

// stageName names a stage for the exchange's EXPLAIN label.
func stageName(op algebra.Operator) string {
	switch x := op.(type) {
	case *algebra.Select:
		return "Select(" + xmlql.ExprString(x.Pred) + ")"
	case *algebra.Project:
		return "Project(" + strings.Join(x.Vars, ",") + ")"
	case *algebra.Match:
		return "Match(<" + x.Pattern.Tag.String() + "> in $" + x.SourceVar + ")"
	default:
		return "?"
	}
}

// exprHasAgg reports whether the expression contains an aggregate (and
// so a correlated subquery the workers must not run concurrently).
func exprHasAgg(e xmlql.Expr) bool {
	switch x := e.(type) {
	case *xmlql.AggExpr:
		return true
	case *xmlql.BinExpr:
		return exprHasAgg(x.L) || exprHasAgg(x.R)
	case *xmlql.FuncExpr:
		for _, a := range x.Args {
			if exprHasAgg(a) {
				return true
			}
		}
	}
	return false
}
