// Package opt is the internal query optimizer (§4: "an internal query
// optimizer that can address the varying query capabilities of different
// data sources"). Given a conjunctive rewrite from the mediator it
// builds a physical-algebra plan: for each source it pushes the largest
// fragment the source's capabilities allow (SQL generation for
// relational sources, whole-document export plus mediator-side pattern
// matching for the rest), places the remaining predicates as early as
// their variables permit, and joins the per-source streams.
package opt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mediator"
	"repro/internal/rdb"
	"repro/internal/sqlgen"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Access is how plan leaves reach data at run time. The execution layer
// implements it with prefetching, availability policy, and the local
// materialized store.
type Access interface {
	// Roots returns the root values to match patterns against for a
	// named source (or fallback mediated schema).
	Roots(source string, req catalog.Request) ([]xmldm.Value, error)
}

// RowAccess is implemented by an Access that can hand a fragment scan
// the rows of a native request's result when its source answered in
// rows. ok false means it answered with a document, which Roots serves.
type RowAccess interface {
	Rows(source string, req catalog.Request) (res *rdb.Result, ok bool, err error)
}

// Options toggle optimizations — the ablation knobs for experiment E5.
type Options struct {
	// PushSelections pushes predicates into capable sources.
	PushSelections bool
	// PushProjections narrows SQL fragments to the needed columns.
	PushProjections bool
	// PushOrder pushes ORDER BY into a single-fragment plan.
	PushOrder bool
	// ReorderJoins processes the most selective source groups first
	// (more coverable predicates and literal constraints = earlier), so
	// joins stream small sides; variable-targeted groups stay after
	// their binders. Answers are order-insensitive at this level — the
	// engine sorts after construction — so reordering is safe.
	ReorderJoins bool
	// Parallelism is the intra-query degree of parallelism: > 1 is
	// stamped on the plan's hash joins as the degree they request (see
	// parallel.go); <= 1 keeps plans serial.
	Parallelism int
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{PushSelections: true, PushProjections: true, PushOrder: true, ReorderJoins: true}
}

// FetchSpec names one source request a plan will perform; the executor
// prefetches them in parallel.
type FetchSpec struct {
	Source string
	Req    catalog.Request
}

// Plan is a compiled conjunctive query.
type Plan struct {
	// Root produces the bindings.
	Root algebra.Operator
	// Construct and OrderBy come from the rewrite (already substituted).
	Construct *xmlql.TmplElem
	OrderBy   []xmlql.OrderKey
	// OrderPushed reports that result order already satisfies OrderBy.
	OrderPushed bool
	// Fetches lists the source requests for parallel prefetch.
	Fetches []FetchSpec
	// Sources lists the distinct sources/schemas the plan touches.
	Sources []string

	// frags remembers, for each fragment-scan leaf, what joinOn needs to
	// turn a join onto it into a bind join (a plan has a handful at most).
	frags []*fragLeaf
	// perOuterRow marks the plan of a correlated subquery, which runs once
	// per outer binding.
	perOuterRow bool
}

// fragLeaf is one planned fragment scan: the source it reads, the
// compiled fragment, and the request the leaf sends when it opens (also
// listed in Plan.Fetches, by value, for the prefetch). Its detail is the
// scan's EXPLAIN label. As the right leaf of a bind join (bind.go) it
// also holds the column the join's keys select on and what the join last
// shipped.
type fragLeaf struct {
	op     *algebra.FuncScan
	source string
	rel    catalog.Relational
	caps   catalog.Capabilities
	frag   *sqlgen.Fragment
	spec   *FetchSpec

	keyCol string // the table column a bind join's keys select on
	keys   int    // keys shipped
	whole  bool   // the join fell back to the whole fragment
}

// Planner compiles rewrites into plans.
type Planner struct {
	Cat    *catalog.Catalog
	Access Access
	Opts   Options
}

// New creates a planner with default options.
func New(cat *catalog.Catalog, access Access) *Planner {
	return &Planner{Cat: cat, Access: access, Opts: DefaultOptions()}
}

// Plan compiles one conjunctive rewrite. preBound lists variables whose
// values the initial input already carries (the outer binding of a
// correlated subquery); input is that initial operator (nil means a
// single empty binding).
func (p *Planner) Plan(rw mediator.Rewrite, preBound []string, input algebra.Operator) (*Plan, error) {
	d := mediator.Decompose(rw.Query)
	plan := &Plan{Construct: rw.Query.Construct, OrderBy: rw.Query.OrderBy, perOuterRow: input != nil}

	bound := map[string]bool{}
	for _, v := range preBound {
		bound[v] = true
	}
	pendingPreds := make([]xmlql.Expr, len(d.Predicates))
	copy(pendingPreds, d.Predicates)

	acc := input
	seenSources := map[string]bool{}

	singleFragment := len(d.Groups) == 1 && len(d.Groups[0].Patterns) == 1 && d.Groups[0].Source != ""

	groups := d.Groups
	if p.Opts.ReorderJoins {
		groups = reorderGroups(groups, d.Predicates)
	}
	for _, g := range groups {
		if g.Source != "" && !seenSources[strings.ToLower(g.Source)] {
			seenSources[strings.ToLower(g.Source)] = true
			plan.Sources = append(plan.Sources, g.Source)
		}
		if g.Var != "" {
			// Patterns over a bound variable's content chain onto the
			// accumulated plan directly.
			if acc == nil {
				return nil, fmt.Errorf("opt: pattern IN $%s has no binding for the variable", g.Var)
			}
			for _, pat := range g.Patterns {
				acc = &algebra.Match{Input: acc, Pattern: pat, SourceVar: g.Var}
				markBound(bound, pat.Vars())
			}
			acc = p.applyReadyPreds(acc, &pendingPreds, bound)
			continue
		}

		// What acc binds, before the group adds to bound. Copied by hand:
		// maps.Clone would make bound escape to the heap on every plan,
		// joins or not.
		var inAcc map[string]bool
		if acc != nil {
			inAcc = make(map[string]bool, len(bound))
			for v := range bound {
				inAcc[v] = true
			}
		}
		groupPlan, err := p.planSourceGroup(plan, g, &pendingPreds, bound, acc != nil, singleFragment && p.Opts.PushOrder, rw.Query.OrderBy)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = groupPlan
		} else {
			acc = p.joinOn(plan, acc, groupPlan, inAcc, g.GroupVars(), &pendingPreds)
		}
		acc = p.applyReadyPreds(acc, &pendingPreds, bound)
	}

	if acc == nil {
		acc = &algebra.Singleton{}
	}
	// Any predicates still pending reference unbound variables; under
	// Null-comparison semantics they are simply evaluated (false unless
	// existence-style) so queries stay total.
	for _, pred := range pendingPreds {
		acc = &algebra.Select{Input: acc, Pred: pred}
	}
	plan.Root = acc
	if p.Opts.Parallelism > 1 {
		p.parallelize(plan.Root)
	}
	return plan, nil
}

// planSourceGroup builds the access path for one source's patterns;
// joined says the group is joined onto what the plan built before it.
func (p *Planner) planSourceGroup(plan *Plan, g *mediator.Group, pending *[]xmlql.Expr,
	bound map[string]bool, joined, tryPushOrder bool, orderBy []xmlql.OrderKey) (algebra.Operator, error) {

	isSchema := p.Cat.IsSchema(g.Source)
	var rel catalog.Relational
	var indexed catalog.Indexed
	var caps catalog.Capabilities
	if !isSchema {
		src, err := p.Cat.Source(g.Source)
		if err != nil {
			return nil, err
		}
		caps = src.Capabilities()
		rel, _ = sourceAs[catalog.Relational](src)
		indexed, _ = sourceAs[catalog.Indexed](src)
	}

	var groupPlan algebra.Operator
	for i, pat := range g.Patterns {
		patVars := pat.Vars()
		var leaf algebra.Operator

		if rel != nil {
			// Offer the predicates this pattern alone can satisfy.
			offer, offerIdx := predsFor(*pending, patVars, joined || i > 0)
			sgOpts := sqlgen.Options{
				PushSelections:  p.Opts.PushSelections,
				PushProjections: p.Opts.PushProjections,
			}
			if tryPushOrder {
				sgOpts.OrderBy = orderBy
			}
			frag, rest, err := sqlgen.Compile(rel.Descriptors(), caps, pat, offer, sgOpts)
			if err == nil {
				consumed := len(offer) - len(rest)
				if consumed > 0 {
					removePreds(pending, offerIdx, offer, rest)
				}
				spec := &FetchSpec{Source: g.Source, Req: catalog.Request{Native: frag.SQL, Collection: frag.Table}}
				plan.Fetches = append(plan.Fetches, *spec)
				if frag.PushedOrder {
					plan.OrderPushed = true
				}
				fl := &fragLeaf{op: fragmentScan(p.Access, spec, frag), source: g.Source, rel: rel, caps: caps, frag: frag, spec: spec}
				fl.op.Detail = fl.detail
				plan.frags = append(plan.frags, fl)
				leaf = fl.op
			}
		}
		if leaf == nil {
			// Full export + mediator-side matching.
			spec := FetchSpec{Source: g.Source, Req: catalog.Request{}}
			plan.Fetches = append(plan.Fetches, spec)
			what := "fetch "
			if isSchema {
				what = "materialize schema "
			}
			access := p.Access
			m := &algebra.Match{
				Input:   &algebra.Singleton{},
				Pattern: pat,
				Roots: func(*algebra.Context) ([]xmldm.Value, error) {
					return access.Roots(spec.Source, spec.Req)
				},
				Label: what + g.Source,
			}
			// The index answers only for the document the source serves
			// now; whatever else the fetch returns is walked.
			if indexed != nil {
				m.Index = indexed.IndexFor
			}
			leaf = m
		}
		markBound(bound, patVars)
		if groupPlan == nil {
			groupPlan = leaf
		} else {
			inGroup := map[string]bool{} // what groupPlan binds: the earlier patterns' variables
			for _, prev := range g.Patterns[:i] {
				markBound(inGroup, prev.Vars())
			}
			groupPlan = p.joinOn(plan, groupPlan, leaf, inGroup, patVars, pending)
		}
	}
	return groupPlan, nil
}

// joinOn joins two binding streams on what the query says relates them:
// the variables both bind (the natural key), plus every pending
// predicate of the exact form $x = $y with one variable bound only by
// the left stream and the other only by the right. Those predicates
// leave pending and become hash-key pairs — the join checks them with
// the predicate's own semantics, so no Select is planned for them.
// Anything else (an expression operand, another operator, both
// variables on one side) stays pending for applyReadyPreds. When the
// right stream is a single fragment scan that can take one of the keys
// as a list, the join becomes a bind join (bind.go).
func (p *Planner) joinOn(plan *Plan, left, right algebra.Operator, inLeft map[string]bool, rightVars []string, pending *[]xmlql.Expr) algebra.Operator {
	j := &algebra.HashJoin{Left: left, Right: right}
	inRight := make(map[string]bool, len(rightVars))
	for _, v := range rightVars {
		if inLeft[v] && !inRight[v] {
			j.On = append(j.On, v)
		}
		inRight[v] = true
	}
	still := (*pending)[:0]
	for _, pred := range *pending {
		if x, y, ok := varEquality(pred); ok {
			if inLeft[y] {
				x, y = y, x
			}
			if inLeft[x] && !inRight[x] && inRight[y] && !inLeft[y] {
				j.Pairs = append(j.Pairs, algebra.KeyPair{Left: x, Right: y})
				continue
			}
		}
		still = append(still, pred)
	}
	*pending = still
	p.bindJoin(plan, j)
	return j
}

// varEquality reports whether e is exactly $x = $y, and the two names.
func varEquality(e xmlql.Expr) (x, y string, ok bool) {
	eq, isBin := e.(*xmlql.BinExpr)
	if !isBin || eq.Op != "=" {
		return "", "", false
	}
	l, lok := eq.L.(*xmlql.VarExpr)
	r, rok := eq.R.(*xmlql.VarExpr)
	if !lok || !rok {
		return "", "", false
	}
	return l.Name, r.Name, true
}

// reorderGroups emits source-targeted groups by descending selectivity
// score (coverable predicates count double; literal constraints in the
// patterns count once), inserting each variable-targeted group as soon
// as some already-emitted group binds its variable. Ties keep query
// order, so plans stay deterministic.
func reorderGroups(groups []*mediator.Group, preds []xmlql.Expr) []*mediator.Group {
	score := func(g *mediator.Group) int {
		vars := map[string]bool{}
		for _, v := range g.GroupVars() {
			vars[v] = true
		}
		s := 0
		for _, pred := range preds {
			pv := xmlql.ExprVars(pred)
			if len(pv) == 0 {
				continue
			}
			covered := true
			for _, v := range pv {
				if !vars[v] {
					covered = false
					break
				}
			}
			if covered {
				s += 2
			}
		}
		for _, pat := range g.Patterns {
			s += literalConstraints(pat)
		}
		return s
	}

	var sourceGroups []*mediator.Group
	var varGroups []*mediator.Group
	for _, g := range groups {
		if g.Var != "" {
			varGroups = append(varGroups, g)
		} else {
			sourceGroups = append(sourceGroups, g)
		}
	}
	sort.SliceStable(sourceGroups, func(i, j int) bool {
		return score(sourceGroups[i]) > score(sourceGroups[j])
	})

	bound := map[string]bool{}
	var out []*mediator.Group
	emit := func(g *mediator.Group) {
		out = append(out, g)
		for _, v := range g.GroupVars() {
			bound[v] = true
		}
	}
	flushVarGroups := func() {
		for progress := true; progress; {
			progress = false
			for i, vg := range varGroups {
				if vg != nil && bound[vg.Var] {
					emit(vg)
					varGroups[i] = nil
					progress = true
				}
			}
		}
	}
	for _, g := range sourceGroups {
		emit(g)
		flushVarGroups()
	}
	// Any leftover variable groups (unbound binder) keep their place at
	// the end; planning reports the error with the original message.
	for _, vg := range varGroups {
		if vg != nil {
			out = append(out, vg)
		}
	}
	return out
}

// literalConstraints counts the text-content and attribute-literal
// constraints in a pattern, a proxy for its selectivity.
func literalConstraints(p *xmlql.ElemPattern) int {
	n := 0
	for _, a := range p.Attrs {
		if a.Var == "" {
			n++
		}
	}
	for _, c := range p.Content {
		switch x := c.(type) {
		case *xmlql.TextContent:
			n++
		case *xmlql.ChildPattern:
			n += literalConstraints(x.Elem)
		}
	}
	return n
}

// sourceAs finds a capability interface on a source or on what it wraps:
// transport wrappers (network simulation, fault injection, timing)
// expose Inner, and the compiler needs the layout descriptors and the
// statistics even when the source sits behind a simulated WAN.
func sourceAs[T any](src catalog.Source) (T, bool) {
	for {
		if t, ok := src.(T); ok {
			return t, true
		}
		w, ok := src.(interface{ Inner() catalog.Source })
		if !ok {
			var zero T
			return zero, false
		}
		src = w.Inner()
	}
}

// applyReadyPreds wraps op in Selects for every pending predicate whose
// variables are all bound, removing them from pending.
func (p *Planner) applyReadyPreds(op algebra.Operator, pending *[]xmlql.Expr, bound map[string]bool) algebra.Operator {
	var still []xmlql.Expr
	for _, pred := range *pending {
		ready := true
		for _, v := range xmlql.ExprVars(pred) {
			if !bound[v] {
				ready = false
				break
			}
		}
		if ready {
			op = &algebra.Select{Input: op, Pred: pred}
		} else {
			still = append(still, pred)
		}
	}
	*pending = still
	return op
}

func markBound(bound map[string]bool, vars []string) {
	for _, v := range vars {
		bound[v] = true
	}
}

// predsFor selects the pending predicates whose variables are all within
// vars, returning them and their indexes. A predicate without variables
// stays in the mediator, which runs it on every row; one that can fail
// holds back every predicate after it, as Compile's order rule does for
// the predicates it keeps: pushed, a later predicate would take away the
// rows it fails on. A leaf joined onto an earlier pattern (joined) is
// offered nothing from the first predicate that can fail on: unpushed,
// its predicates run above the join, on the joined rows alone, and
// pushed, on every row of the table, where one can fail on a row the
// join drops.
func predsFor(pending []xmlql.Expr, vars []string, joined bool) ([]xmlql.Expr, []int) {
	set := map[string]bool{}
	for _, v := range vars {
		set[v] = true
	}
	var out []xmlql.Expr
	var idx []int
	for i, pred := range pending {
		if joined && sqlgen.CanFail(pred) {
			break
		}
		ok := true
		pv := xmlql.ExprVars(pred)
		if len(pv) == 0 {
			if sqlgen.CanFail(pred) {
				break
			}
			ok = false
		}
		for _, v := range pv {
			if !set[v] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, pred)
			idx = append(idx, i)
		}
	}
	return out, idx
}

// removePreds deletes from pending the offered predicates that were
// consumed (offer minus rest), by index.
func removePreds(pending *[]xmlql.Expr, offerIdx []int, offer, rest []xmlql.Expr) {
	restSet := map[xmlql.Expr]bool{}
	for _, r := range rest {
		restSet[r] = true
	}
	var drop []int
	for i, o := range offer {
		if !restSet[o] {
			drop = append(drop, offerIdx[i])
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(drop)))
	for _, di := range drop {
		*pending = append((*pending)[:di], (*pending)[di+1:]...)
	}
}

// fragmentScan builds the leaf operator that runs a compiled SQL
// fragment and turns its result rows into bindings directly — no
// pattern matching needed, because each variable reads the output
// column named after its table column (Fragment.Columns). It binds from
// the rows when the access has them, and from their XML export
// otherwise. The request is read from spec when the leaf opens: a bind
// join writes it just before.
func fragmentScan(access Access, spec *FetchSpec, frag *sqlgen.Fragment) *algebra.FuncScan {
	vars := make([]string, 0, len(frag.Columns))
	for v := range frag.Columns {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	cols := make([]string, len(vars))
	for i, v := range vars {
		cols[i] = frag.Columns[v]
	}
	rowAccess, _ := access.(RowAccess)
	var scan *algebra.FuncScan
	scan = &algebra.FuncScan{
		OpenFn: func(ctx *algebra.Context) (func() (algebra.Binding, error), error) {
			if rowAccess != nil {
				res, ok, err := rowAccess.Rows(spec.Source, spec.Req)
				if err != nil {
					return nil, err
				}
				if ok {
					return bindRows(res, vars, cols, scan.Transient), nil
				}
			}
			roots, err := access.Roots(spec.Source, spec.Req)
			if err != nil {
				return nil, err
			}
			rows := rowNodes(roots, frag.RowElement)
			// A relational export lays every row out alike, so each
			// variable's cell position is resolved once, on the first
			// row, and only checked after that.
			pos := make([]int, len(cols))
			if len(rows) > 0 {
				for i, name := range cols {
					pos[i] = childIndex(rows[0], name)
				}
			}
			slab := newTupleSlab(len(rows), len(vars), scan.Transient)
			i := 0
			return func() (algebra.Binding, error) {
				if i >= len(rows) {
					return nil, nil
				}
				t, fields := slab.at(i)
				bindRow(fields, rows[i], vars, cols, pos)
				i++
				return t, nil
			}, nil
		},
	}
	return scan
}

// rowNodes is the children called name of the roots that are elements,
// in order, in one slice: they are counted before they are collected.
func rowNodes(roots []xmldm.Value, name string) []*xmldm.Node {
	var rows []*xmldm.Node
	for _, count := range []bool{true, false} {
		n := 0
		for _, r := range roots {
			doc, ok := r.(*xmldm.Node)
			if !ok {
				continue
			}
			for _, c := range doc.Children {
				if e, ok := c.(*xmldm.Node); ok && e.Name == name {
					if !count {
						rows = append(rows, e)
					}
					n++
				}
			}
		}
		if count {
			rows = make([]*xmldm.Node, 0, n)
		}
	}
	return rows
}

// tupleSlab hands out a fragment scan's tuples, carved from one slab of
// tuples and one of fields (xmldm.NewTuples): one per row, or, for a
// transient scan (FuncScan.Transient), one refilled for every row.
type tupleSlab struct {
	tuples    []xmldm.Tuple
	fields    []xmldm.Field
	width     int
	transient bool
}

func newTupleSlab(rows, width int, transient bool) tupleSlab {
	if transient {
		rows = min(rows, 1)
	}
	tuples, fields := xmldm.NewTuples(rows, width)
	return tupleSlab{tuples: tuples, fields: fields, width: width, transient: transient}
}

// at is row i's tuple and its fields, for the caller to fill.
func (s *tupleSlab) at(i int) (*xmldm.Tuple, []xmldm.Field) {
	if s.transient {
		i = 0
	}
	return &s.tuples[i], s.fields[i*s.width : (i+1)*s.width]
}

// bindRows is the pull function over a fragment's result rows: vars[i]
// binds the cell of column cols[i], by the rules of the export cellValue
// reads back — a NULL cell is the empty string, any other its export text
// (rdb.Result.Text), and a column the result lacks is Null (a repeated
// column takes its first place). Output columns are resolved once, and
// the tuples come from a tupleSlab. A nil result has no rows.
func bindRows(res *rdb.Result, vars, cols []string, transient bool) func() (algebra.Binding, error) {
	var rows []rdb.Row
	var columns []string
	if res != nil {
		rows, columns = res.Rows, res.Columns
	}
	out := make([]int, len(cols))
	for i, name := range cols {
		out[i] = slices.Index(columns, name)
	}
	slab := newTupleSlab(len(rows), len(vars), transient)
	i := 0
	return func() (algebra.Binding, error) {
		if i >= len(rows) {
			return nil, nil
		}
		t, fields := slab.at(i)
		row := rows[i]
		i++
		for k, v := range vars {
			fields[k] = xmldm.Field{Name: v, Value: rowCell(res, row, out[k])}
		}
		return t, nil
	}
}

// rowCell is the value output column c of row binds (c < 0: a column the
// result lacks): what cellValue reads from its exported element. A cell's
// text is the result's, shared with the database when the row is the
// table's own.
func rowCell(res *rdb.Result, row rdb.Row, c int) xmldm.Value {
	if c < 0 {
		return xmldm.Null{}
	}
	if v := res.Text(row, c); v != nil {
		return v
	}
	return xmldm.String("") // NULL exports as an empty element
}

// bindRow fills fields, binding vars[i] to the text of row's child
// element cols[i], looked for at pos[i] first and by name if something
// else sits there; a row without the column binds Null.
func bindRow(fields []xmldm.Field, row *xmldm.Node, vars, cols []string, pos []int) {
	for i, v := range vars {
		var cell *xmldm.Node
		if p := pos[i]; p >= 0 && p < len(row.Children) {
			if e, ok := row.Children[p].(*xmldm.Node); ok && e.Name == cols[i] {
				cell = e
			}
		}
		if cell == nil {
			cell = row.Child(cols[i])
		}
		fields[i] = xmldm.Field{Name: v, Value: cellValue(cell)}
	}
}

// cellValue is the atom a column element carries: its text, or Null for
// a column the row lacks. An exported cell holds at most one string, and
// that boxed string is reused rather than rebuilt.
func cellValue(cell *xmldm.Node) xmldm.Value {
	if cell == nil {
		return xmldm.Null{}
	}
	switch len(cell.Children) {
	case 0:
		return xmldm.String("")
	case 1:
		if _, ok := cell.Children[0].(xmldm.String); ok {
			return cell.Children[0]
		}
	}
	return xmldm.String(cell.Text())
}

// childIndex is the position of row's first child element called name,
// or -1.
func childIndex(row *xmldm.Node, name string) int {
	for i, c := range row.Children {
		if e, ok := c.(*xmldm.Node); ok && e.Name == name {
			return i
		}
	}
	return -1
}
