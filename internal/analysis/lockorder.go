package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a global lock-acquisition graph and reports cycles
// as potential deadlocks. Nodes are lock classes — a mutex identified
// by its owning struct type and field name (cluster.Cluster.mu) or, for
// package-level mutexes, by package and variable name. An edge A→B
// means some function acquires B while a must-analysis over its CFG
// proves A is held; edges also arise transitively, through calls to
// functions whose own paths acquire locks. Two classes on a cycle can
// deadlock under concurrency the race detector only probabilistically
// catches.
//
// The per-package Run pass records direct nesting edges, per-function
// acquisition summaries, and call sites made while holding locks; the
// suite-level Finish pass closes the call graph and reports each cycle
// once, at a witnessing acquisition. `guarded by` annotations seed the
// class universe so annotated mutexes participate even before any
// nesting is observed. Re-acquisition of a held mutex through the same
// receiver expression (self-deadlock — sync.Mutex is not reentrant) is
// reported directly from Run when immediate, and from Finish when one
// call away: a method called on the receiver that holds the mutex
// (s.get() under s.mu) that locks it through its own receiver.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "build the global lock-acquisition graph from guarded-by annotations and observed " +
		"Lock/RLock nesting; report acquisition cycles as potential deadlocks",
}

// Run and Finish refer back to LockOrder (for the session state key), so
// they are attached here rather than in the literal above.
func init() {
	LockOrder.Run = runLockOrder
	LockOrder.Finish = finishLockOrder
}

// lockMode distinguishes read and write acquisitions: re-acquiring a
// read lock is legal (if inadvisable); re-acquiring a write lock, or
// either around a write, deadlocks.
type lockMode uint8

const (
	lockRead  lockMode = 1
	lockWrite lockMode = 2
)

// lockEdge is one observed "B acquired while A held" nesting.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee name for transitive edges, "" for direct nesting
}

// lockState is the suite-level accumulator.
type lockState struct {
	classes map[string]bool      // every lock class seen or annotated
	edges   []lockEdge           // direct nesting edges
	acq     map[string][]lockAcq // function key -> locks its body acquires
	calls   map[string][]string  // function key -> module functions it calls
	pending []pendingCall        // calls made while holding locks
	self    map[string]string    // method key -> its receiver's name
}

// lockAcq is one acquisition in a function's body, through the receiver
// expression recv.
type lockAcq struct {
	class string
	pos   token.Pos
	recv  string
	mode  lockMode
}

// pendingCall is a call made while holding locks: held maps each class
// held to how it was acquired, and recv is the call's receiver
// expression ("" for a function).
type pendingCall struct {
	held   map[string]heldLock
	recv   string
	callee string
	pos    token.Pos
}

func lockStateOf(s *Session) *lockState {
	return s.State(LockOrder, func() any {
		return &lockState{
			classes: make(map[string]bool),
			acq:     make(map[string][]lockAcq),
			calls:   make(map[string][]string),
			self:    make(map[string]string),
		}
	}).(*lockState)
}

func runLockOrder(pass *Pass) error {
	st := lockStateOf(pass.Session)

	// Seed classes from `guarded by` annotations so annotated mutexes are
	// graph nodes even before any nesting touches them.
	for _, f := range pass.Files {
		seedGuardedClasses(pass, f, st)
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lockCheckFunc(pass, fd, st)
		}
	}
	return nil
}

// lockClassOf names the lock class of the receiver of a Lock/RLock/
// Unlock/RUnlock call: "pkgpath.Type.field" for struct-field mutexes,
// "pkgpath.var" for package-level ones, "" for locals and unresolvable
// receivers (which cannot participate in a global order).
func lockClassOf(pass *Pass, recv ast.Expr) string {
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		if pass.TypesInfo != nil {
			if sel, ok := pass.TypesInfo.Selections[x]; ok {
				fld, ok := sel.Obj().(*types.Var)
				if !ok || fld.Pkg() == nil {
					return ""
				}
				owner := ownerTypeName(sel.Recv())
				if owner == "" {
					return ""
				}
				return fld.Pkg().Path() + "." + owner + "." + fld.Name()
			}
			// Package-qualified variable: pkg.mu.Lock().
			if id, ok := x.X.(*ast.Ident); ok {
				if path, isPkg := pass.pkgPathOf(id); isPkg {
					return path + "." + x.Sel.Name
				}
			}
		}
	case *ast.Ident:
		if obj := pass.objectOf(x); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.ParenExpr:
		return lockClassOf(pass, x.X)
	}
	return ""
}

// ownerTypeName unwraps a receiver type to its named-type name.
func ownerTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// lockCallKind classifies a call as a mutex acquisition or release.
func lockCallKind(name string) (mode lockMode, acquire, release bool) {
	switch name {
	case "Lock":
		return lockWrite, true, false
	case "RLock":
		return lockRead, true, false
	case "Unlock":
		return lockWrite, false, true
	case "RUnlock":
		return lockRead, false, true
	}
	return 0, false, false
}

// heldLock is the per-class holding state: the mode bits and the
// receiver expression it was acquired through ("" when paths disagree
// or the expression is not a plain chain), which the self-deadlock
// check uses to tell re-locking c.mu from locking b.mu on a second
// instance of the same type.
type heldLock struct {
	mode lockMode
	recv string
}

// heldFact maps lock class -> holding state, for the must-analysis; the
// reached flag distinguishes "no path here yet" (join identity) from
// "reachable holding nothing".
type heldFact struct {
	reached bool
	locks   map[string]heldLock
}

func (f heldFact) clone() heldFact {
	out := heldFact{reached: f.reached, locks: make(map[string]heldLock, len(f.locks))}
	for k, v := range f.locks {
		out.locks[k] = v
	}
	return out
}

type lockLattice struct {
	p *Pass
}

func (l *lockLattice) entry() heldFact     { return heldFact{reached: true, locks: map[string]heldLock{}} }
func (l *lockLattice) unreached() heldFact { return heldFact{} }

// join intersects: a lock is held at a point only if held on every path
// to it (must-analysis — claiming A→B nesting needs certainty about A).
func (l *lockLattice) join(a, b heldFact) heldFact {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := heldFact{reached: true, locks: make(map[string]heldLock)}
	for k, va := range a.locks {
		if vb, ok := b.locks[k]; ok {
			merged := heldLock{mode: va.mode | vb.mode, recv: va.recv}
			if va.recv != vb.recv {
				merged.recv = ""
			}
			out.locks[k] = merged
		}
	}
	return out
}

func (l *lockLattice) equal(a, b heldFact) bool {
	if a.reached != b.reached || len(a.locks) != len(b.locks) {
		return false
	}
	for k, v := range a.locks {
		if bv, ok := b.locks[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func (l *lockLattice) edgeFact(e Edge, out heldFact) heldFact { return out }

func (l *lockLattice) transfer(b *Block, in heldFact) heldFact {
	if !in.reached {
		return in
	}
	fact := in.clone()
	for _, n := range b.Nodes {
		applyLockNode(l.p, n, &fact, nil, "", nil)
	}
	return fact
}

// applyLockNode interprets one block node's lock operations against the
// held set. When record is non-nil it also emits nesting edges, call
// edges, and acquisition summaries (the post-fixpoint reporting walk).
func applyLockNode(pass *Pass, n ast.Node, fact *heldFact, st *lockState, fnKey string, report func(format string, pos token.Pos, args ...any)) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		// defer mu.Unlock(): the lock is held until function exit; the
		// held set is unchanged from here on, which is exactly right for
		// nesting edges. Deferred calls are otherwise not interpreted.
		return
	}
	visitNode(n, func(m ast.Node, stack []ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, name, isMethod := pass.methodCall(call)
		if isMethod {
			if mode, acquire, release := lockCallKind(name); acquire || release {
				class := lockClassOf(pass, recv)
				if class == "" {
					return
				}
				if acquire {
					rs := exprString(recv)
					if held, ok := fact.locks[class]; ok {
						// Re-acquiring a held class: deadlock when the same
						// instance (matching receiver expression) and either
						// acquisition writes. Two instances of one type — a
						// two-tree merge — stay clean.
						if report != nil && rs != "" && rs == held.recv &&
							(held.mode&lockWrite != 0 || mode == lockWrite) {
							report("mutex %s is acquired while already held by this function (sync mutexes are not reentrant)",
								call.Pos(), shortLockClass(class))
						}
					}
					if st != nil {
						st.classes[class] = true
						for held := range fact.locks {
							if held != class {
								st.edges = append(st.edges, lockEdge{from: held, to: class, pos: call.Pos()})
							}
						}
						st.acq[fnKey] = append(st.acq[fnKey], lockAcq{class: class, pos: call.Pos(), recv: rs, mode: mode})
					}
					prev, was := fact.locks[class]
					next := heldLock{mode: mode, recv: rs}
					if was {
						next.mode |= prev.mode
						if prev.recv != rs {
							next.recv = ""
						}
					}
					fact.locks[class] = next
				} else {
					delete(fact.locks, class)
				}
				return
			}
		}
		// A call into module code while holding locks: the callee's own
		// acquisitions nest under the held set (resolved in Finish).
		if st == nil || len(fact.locks) == 0 {
			return
		}
		if key := calleeKey(pass, call); key != "" && key != fnKey {
			held := make(map[string]heldLock, len(fact.locks))
			for c, h := range fact.locks {
				held[c] = h
			}
			pc := pendingCall{held: held, callee: key, pos: call.Pos()}
			if recv, _, isMethod := pass.methodCall(call); isMethod {
				pc.recv = exprString(recv)
			}
			st.pending = append(st.pending, pc)
		}
	})
	// Call-graph edges are recorded regardless of held locks so Finish
	// can close summaries transitively.
	if st != nil {
		visitNode(n, func(m ast.Node, stack []ast.Node) {
			if call, ok := m.(*ast.CallExpr); ok {
				if key := calleeKey(pass, call); key != "" && key != fnKey {
					st.calls[fnKey] = append(st.calls[fnKey], key)
				}
			}
		})
	}
}

// calleeKey names a called function/method in module code
// ("pkgpath.Name" / "pkgpath.Type.Name"), or "" for out-of-module and
// unresolvable callees. Analysis state only tracks module functions —
// the stdlib does not call back into Nimble's locks.
func calleeKey(pass *Pass, call *ast.CallExpr) string {
	if pass.TypesInfo == nil {
		return ""
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	if !moduleLocalPath(path) {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if owner := ownerTypeName(sig.Recv().Type()); owner != "" {
			return path + "." + owner + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// moduleLocalPath reports whether an import path belongs to this module
// (or a lint corpus): only module code contributes call summaries.
func moduleLocalPath(path string) bool {
	return strings.HasPrefix(path, "repro") || strings.HasPrefix(path, "testdata")
}

// funcKey names a declared function the way calleeKey names a callee.
func funcKey(pass *Pass, fd *ast.FuncDecl) string {
	path := pass.Pkg.Path()
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if id, ok := baseTypeIdent(fd.Recv.List[0].Type); ok {
			return path + "." + id.Name + "." + fd.Name.Name
		}
	}
	return path + "." + fd.Name.Name
}

func lockCheckFunc(pass *Pass, fd *ast.FuncDecl, st *lockState) {
	g := NewCFG(fd.Body)
	lat := &lockLattice{p: pass}
	res := forward(g, lat)
	key := funcKey(pass, fd)
	if fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		st.self[key] = fd.Recv.List[0].Names[0].Name
	}

	// Reporting walk: replay each block from its stable in-fact, now
	// recording edges, summaries, and self-deadlocks.
	for _, b := range g.Blocks {
		in := res.in[b]
		if !in.reached {
			continue
		}
		fact := in.clone()
		for _, n := range b.Nodes {
			applyLockNode(pass, n, &fact, st, key, func(format string, pos token.Pos, args ...any) {
				pass.Reportf(pos, format, args...)
			})
		}
	}
}

// seedGuardedClasses registers a lock class for every `guarded by`
// struct-field annotation, reusing the guardedby analyzer's comment
// convention.
func seedGuardedClasses(pass *Pass, f *ast.File, st *lockState) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			stype, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fld := range stype.Fields.List {
				mu := guardAnnotation(fld)
				if mu == "" {
					continue
				}
				// The annotation names a sibling field (or "mu" shorthand);
				// the class is that mutex field on this struct.
				mu = strings.TrimPrefix(mu, ts.Name.Name+".")
				if i := strings.LastIndex(mu, "."); i >= 0 {
					mu = mu[i+1:]
				}
				st.classes[pass.Pkg.Path()+"."+ts.Name.Name+"."+mu] = true
			}
		}
	}
}

// shortLockClass trims the module prefix for readable diagnostics:
// repro/internal/cluster.Cluster.mu -> cluster.Cluster.mu.
func shortLockClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

// finishLockOrder closes the acquisition summaries over the call graph,
// materializes transitive edges under the pending calls, and reports
// every cycle in the resulting class graph.
func finishLockOrder(s *Session) []Diagnostic {
	stAny, ok := s.state[LockOrder]
	if !ok {
		return nil
	}
	st := stAny.(*lockState)

	// Transitive closure: every lock class each function may acquire,
	// directly or through module calls.
	memo := make(map[string]map[string]lockAcq)
	var closure func(fn string, seen map[string]bool) map[string]lockAcq
	closure = func(fn string, seen map[string]bool) map[string]lockAcq {
		if m, ok := memo[fn]; ok {
			return m
		}
		if seen[fn] {
			return nil // call cycle: already contributing on the outer frame
		}
		seen[fn] = true
		out := make(map[string]lockAcq)
		for _, a := range st.acq[fn] {
			if _, ok := out[a.class]; !ok {
				out[a.class] = a
			}
		}
		for _, callee := range st.calls[fn] {
			for class, a := range closure(callee, seen) {
				if _, ok := out[class]; !ok {
					out[class] = lockAcq{class: class, pos: a.pos}
				}
			}
		}
		delete(seen, fn)
		memo[fn] = out
		return out
	}

	var diags []Diagnostic
	edges := append([]lockEdge(nil), st.edges...)
	for _, pc := range st.pending {
		for class := range closure(pc.callee, make(map[string]bool)) {
			for held := range pc.held {
				if held != class {
					edges = append(edges, lockEdge{from: held, to: class, pos: pc.pos, via: shortFuncKey(pc.callee)})
				}
			}
		}
		if a, ok := st.reacquires(pc); ok {
			diags = append(diags, Diagnostic{
				Pos:      pc.pos,
				Analyzer: LockOrder.Name,
				Message: fmt.Sprintf("mutex %s is acquired while already held by this function: %s locks it again through the same receiver (sync mutexes are not reentrant)",
					shortLockClass(a.class), shortFuncKey(pc.callee)),
			})
		}
	}

	// Deduplicate edges per (from, to), keeping the earliest witness.
	type edgeKey struct{ from, to string }
	best := make(map[edgeKey]lockEdge)
	adj := make(map[string][]string)
	for _, e := range edges {
		k := edgeKey{e.from, e.to}
		if old, ok := best[k]; !ok || e.pos < old.pos {
			best[k] = e
		}
	}
	keys := make([]edgeKey, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		adj[k.from] = append(adj[k.from], k.to)
	}

	// Find cycles: for each class in deterministic order, search for the
	// lexicographically-first simple path back to itself. Each cycle is
	// reported once, keyed by its canonical rotation.
	classes := make([]string, 0, len(adj))
	for c := range adj {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	reported := make(map[string]bool)
	for _, start := range classes {
		path := findCycle(adj, start)
		if path == nil {
			continue
		}
		canon := canonicalCycle(path)
		if reported[canon] {
			continue
		}
		reported[canon] = true

		var steps []string
		var witness lockEdge
		for i := 0; i < len(path); i++ {
			from, to := path[i], path[(i+1)%len(path)]
			e := best[edgeKey{from, to}]
			if i == 0 {
				witness = e
			}
			step := shortLockClass(from) + " -> " + shortLockClass(to)
			if e.via != "" {
				step += " (via " + e.via + ")"
			}
			steps = append(steps, step)
		}
		diags = append(diags, Diagnostic{
			Pos:      witness.pos,
			Analyzer: LockOrder.Name,
			Message: fmt.Sprintf("lock-order cycle: %s; acquire these mutexes in one consistent order",
				strings.Join(steps, ", ")),
		})
	}
	return diags
}

// reacquires returns an acquisition of the method pc calls that locks,
// through the method's own receiver, the very mutex the caller holds
// through the call's receiver — s.get() under s.mu, where get locks s.mu
// — with either side writing. A call on another instance of the type
// (y.get() under x.mu) is not one.
func (st *lockState) reacquires(pc pendingCall) (lockAcq, bool) {
	self := st.self[pc.callee]
	if self == "" || pc.recv == "" {
		return lockAcq{}, false
	}
	for _, a := range st.acq[pc.callee] {
		held, ok := pc.held[a.class]
		path, viaSelf := strings.CutPrefix(a.recv, self+".")
		if ok && viaSelf && held.recv == pc.recv+"."+path && (held.mode&lockWrite != 0 || a.mode == lockWrite) {
			return a, true
		}
	}
	return lockAcq{}, false
}

// findCycle returns a simple cycle through start (start first), or nil.
func findCycle(adj map[string][]string, start string) []string {
	var path []string
	seen := make(map[string]bool)
	var dfs func(cur string) bool
	dfs = func(cur string) bool {
		for _, next := range adj[cur] {
			if next == start {
				return true
			}
			if seen[next] {
				continue
			}
			seen[next] = true
			path = append(path, next)
			if dfs(next) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	seen[start] = true
	if dfs(start) {
		return append([]string{start}, path...)
	}
	return nil
}

// canonicalCycle rotates the cycle to start at its smallest class so
// each cycle is reported exactly once.
func canonicalCycle(path []string) string {
	min := 0
	for i := range path {
		if path[i] < path[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), path[min:]...), path[:min]...)
	return strings.Join(rot, "|")
}

// shortFuncKey trims the module prefix from a function key.
func shortFuncKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
