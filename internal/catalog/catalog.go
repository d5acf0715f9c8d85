// Package catalog is the metadata server of the integration system
// (§2.1): it registers data sources with their capability descriptions,
// and holds the mediated schemas — global-as-view definitions written in
// XML-QL over sources or over other mediated schemas, composable
// hierarchically so that "we can define successive schemas as views over
// other underlying schemas".
package catalog

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rdb"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// Capabilities describes the query processing a source can perform, so
// the optimizer can "address the varying query capabilities of different
// data sources" (§4).
type Capabilities struct {
	// Selection: the source can evaluate comparison predicates.
	Selection bool
	// Projection: the source can return a subset of fields.
	Projection bool
	// Ordering: the source can sort results.
	Ordering bool
	// KeyLookupOnly: the source only supports lookups by key/path (e.g.
	// a hierarchical directory); full scans must be requested explicitly.
	KeyLookupOnly bool
}

// Request is a compiled query fragment for one source. For capable
// sources Native carries the fragment translated into the source's own
// language (SQL for relational sources, a path for hierarchical ones);
// for sources without query capability Native is empty and the source
// returns its whole document for the mediator to match.
type Request struct {
	Native string
	// Collection optionally narrows the request to one named collection
	// (table, subtree) of the source.
	Collection string
}

// Cost summarizes a source's answer for the optimizer's statistics.
type Cost struct {
	RowsReturned int
	BytesMoved   int
}

// Source is a wrapper around one external data source. Fetch returns the
// result as an XML document in the source's export schema.
type Source interface {
	// Name is the unique source name used in IN clauses and mappings.
	Name() string
	// Capabilities reports what the source can evaluate.
	Capabilities() Capabilities
	// Fetch executes a request. The returned node is owned by the caller
	// (sources return fresh trees or stable documents that callers must
	// not mutate).
	Fetch(ctx context.Context, req Request) (*xmldm.Node, Cost, error)
}

// RelationalDescriptor describes how a relational source exports a table
// as XML, which is what the compiler needs to translate pattern
// fragments to SQL: "the compiler considers both the type of the
// underlying source [and] information concerning the layout of the data
// within the sources" (§2.1).
type RelationalDescriptor struct {
	// Table is the SQL table name.
	Table string
	// RowElement is the element name each row is exported as.
	RowElement string
	// ColumnElements maps exported child-element names to column names.
	ColumnElements map[string]string
	// KeyColumn is the primary key column, if any.
	KeyColumn string
	// IndexedColumns lists columns with indexes (including the key).
	IndexedColumns []string
}

// TableStats is what a source knows about one of its tables without
// running a query.
type TableStats struct {
	// Rows is the live row count.
	Rows int
}

// Stats is implemented by sources that can report table statistics; the
// planner reads them when it chooses between fetching a table whole and
// fetching only the rows a join's other side asks for.
type Stats interface {
	TableStats(table string) (TableStats, bool)
}

// Indexed is implemented by sources that serve one immutable document
// and keep an element index over it; the planner hands it to the leaf
// that matches the document. IndexFor answers only for the document the
// source serves now, compared by pointer: a copy, a truncated transfer,
// a materialized view or a document from before an update gets nil, and
// whoever holds it walks the tree instead.
type Indexed interface {
	IndexFor(doc *xmldm.Node) *xmldm.ElemIndex
}

// Snapshot is one version of a source's document with the element index
// over it, built on first use. A source that serves the same tree to
// every fetch until it changes keeps one and swaps it whole, so a query
// that fetched one version reads that version to the end.
type Snapshot struct {
	doc  *xmldm.Node
	once sync.Once
	ix   *xmldm.ElemIndex
}

// NewSnapshot wraps a document that will not change again.
func NewSnapshot(doc *xmldm.Node) *Snapshot { return &Snapshot{doc: doc} }

// Doc is the snapshot's document.
func (s *Snapshot) Doc() *xmldm.Node { return s.doc }

// Index is the element index over Doc, built by the first caller.
func (s *Snapshot) Index() *xmldm.ElemIndex {
	s.once.Do(func() { s.ix = xmldm.NewElemIndex(s.doc) })
	return s.ix
}

// IndexFor implements Indexed for the snapshot's own document; a nil
// snapshot indexes nothing.
func (s *Snapshot) IndexFor(doc *xmldm.Node) *xmldm.ElemIndex {
	if s == nil || doc == nil || doc != s.doc {
		return nil
	}
	return s.Index()
}

// RowFetcher is implemented by sources that can answer a native request
// with the rows of its result instead of their XML export of them. The
// cost is the one Fetch reports for the same request, and the export is
// what Fetch would have returned. Unlike the metadata capabilities it is
// honoured only on the registered object (RowsOf), never through Inner():
// answering in rows there would skip the wrapper's own fetch — its
// simulated latency, its faults, its metrics. A wrapper that forwards it
// answers FetchesRows for what it wraps.
type RowFetcher interface {
	// FetchesRows reports whether FetchRows can answer.
	FetchesRows() bool
	FetchRows(ctx context.Context, req Request) (*rdb.Result, Cost, error)
}

// RowsOf returns src's row capability, if src itself has one that can
// answer.
func RowsOf(src Source) (RowFetcher, bool) {
	rf, ok := src.(RowFetcher)
	if !ok || !rf.FetchesRows() {
		return nil, false
	}
	return rf, true
}

// FetchRows asks src for req's rows — the call a wrapper forwards
// through. A source that cannot answer in rows is an error.
func FetchRows(ctx context.Context, src Source, req Request) (*rdb.Result, Cost, error) {
	rf, ok := RowsOf(src)
	if !ok {
		return nil, Cost{}, fmt.Errorf("catalog: source %q does not answer in rows", src.Name())
	}
	return rf.FetchRows(ctx, req)
}

// Relational is implemented by sources that accept SQL; the compiler
// checks for it when translating fragments.
type Relational interface {
	Source
	// Descriptors lists the exported tables.
	Descriptors() []RelationalDescriptor
}

// ViewDef is one global-as-view definition: the mediated schema's
// content is defined by Query, whose IN clauses reference sources or
// other mediated schemas.
type ViewDef struct {
	// Name of the mediated schema this view contributes to.
	Schema string
	// Query computes (part of) the schema's document.
	Query *xmlql.Query
}

// Catalog registers sources and mediated schemas. Safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]Source
	views   map[string][]*ViewDef // by schema name
	gen     atomic.Uint64         // Generation
}

// ErrUnknownName is wrapped by lookups of unregistered sources/schemas.
var ErrUnknownName = errors.New("catalog: unknown source or schema")

// Generation counts the catalog's mutations: every registration,
// replacement or wrapping of a source and every view definition added or
// withdrawn changes it. Work derived from the catalog (a prepared query's
// unfolding) is current while the generation it was derived at is.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		sources: make(map[string]Source),
		views:   make(map[string][]*ViewDef),
	}
}

// AddSource registers a source; the name must be unused by sources and
// schemas alike.
func (c *Catalog) AddSource(s Source) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(s.Name())
	if key == "" {
		return errors.New("catalog: source must have a name")
	}
	if _, ok := c.sources[key]; ok {
		return fmt.Errorf("catalog: source %q already registered", s.Name())
	}
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("catalog: name %q already names a mediated schema", s.Name())
	}
	c.sources[key] = s
	c.gen.Add(1)
	return nil
}

// ReplaceSource swaps the registered source of the same name — used to
// wrap an already-registered source (instrumentation, network
// simulation) without re-running registration checks. The name must
// already be registered.
func (c *Catalog) ReplaceSource(s Source) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(s.Name())
	if _, ok := c.sources[key]; !ok {
		return fmt.Errorf("%w: source %q", ErrUnknownName, s.Name())
	}
	c.sources[key] = s
	c.gen.Add(1)
	return nil
}

// WrapAll replaces every registered source with wrap(source) — the bulk
// entry point instrumentation and fault-injection wrappers use. wrap
// must return a source reporting the same Name (lookups key on the
// registered name); returning nil keeps the original unwrapped.
func (c *Catalog) WrapAll(wrap func(Source) Source) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, s := range c.sources {
		if w := wrap(s); w != nil {
			c.sources[key] = w
		}
	}
	c.gen.Add(1)
}

// Source returns the named source.
func (c *Catalog) Source(name string) (Source, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sources[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: source %q", ErrUnknownName, name)
	}
	return s, nil
}

// DefineView adds a view definition to a mediated schema, creating the
// schema on first definition. Multiple definitions union: each
// contributes elements to the schema's document, which is how different
// parts of an organization integrate "in an incremental fashion" (§2).
func (c *Catalog) DefineView(schema string, q *xmlql.Query) error {
	if q == nil || q.Construct == nil {
		return errors.New("catalog: view definition needs a CONSTRUCT clause")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(schema)
	if key == "" {
		return errors.New("catalog: schema must have a name")
	}
	if _, ok := c.sources[key]; ok {
		return fmt.Errorf("catalog: name %q already names a source", schema)
	}
	c.views[key] = append(c.views[key], &ViewDef{Schema: schema, Query: q})
	c.gen.Add(1)
	return nil
}

// DefineViewQL parses src as XML-QL and defines it as a view.
func (c *Catalog) DefineViewQL(schema, src string) error {
	q, err := xmlql.Parse(src)
	if err != nil {
		return err
	}
	return c.DefineView(schema, q)
}

// DefineViewQLChecked defines a view and verifies the schema hierarchy
// stays acyclic, removing the new definition again if it would create a
// cycle — the safe entry point for management tools taking definitions
// at runtime.
func (c *Catalog) DefineViewQLChecked(schema, src string) error {
	if err := c.DefineViewQL(schema, src); err != nil {
		return err
	}
	if err := c.CheckAcyclic(); err != nil {
		c.mu.Lock()
		key := strings.ToLower(schema)
		if defs := c.views[key]; len(defs) > 0 {
			c.views[key] = defs[:len(defs)-1]
			if len(c.views[key]) == 0 {
				delete(c.views, key)
			}
		}
		c.gen.Add(1)
		c.mu.Unlock()
		return err
	}
	return nil
}

// Views returns the view definitions of a mediated schema.
func (c *Catalog) Views(schema string) ([]*ViewDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vs, ok := c.views[strings.ToLower(schema)]
	if !ok {
		return nil, fmt.Errorf("%w: schema %q", ErrUnknownName, schema)
	}
	return vs, nil
}

// IsSchema reports whether name names a mediated schema.
func (c *Catalog) IsSchema(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.views[strings.ToLower(name)]
	return ok
}

// IsSource reports whether name names a registered source.
func (c *Catalog) IsSource(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.sources[strings.ToLower(name)]
	return ok
}

// SourceNames returns the registered source names, sorted.
func (c *Catalog) SourceNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for _, s := range c.sources {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}

// SchemaNames returns the mediated schema names, sorted.
func (c *Catalog) SchemaNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for name, defs := range c.views {
		if len(defs) > 0 {
			names = append(names, defs[0].Schema)
		} else {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CheckAcyclic verifies that no mediated schema depends on itself through
// its view definitions — hierarchical composition must be a DAG.
func (c *Catalog) CheckAcyclic() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string, trail []string) error
	visit = func(name string, trail []string) error {
		key := strings.ToLower(name)
		switch color[key] {
		case grey:
			return fmt.Errorf("catalog: cyclic schema definition: %s -> %s", strings.Join(trail, " -> "), name)
		case black:
			return nil
		}
		color[key] = grey
		for _, dep := range c.readsLocked(key) {
			if _, isView := c.views[strings.ToLower(dep)]; isView {
				if err := visit(dep, append(trail, name)); err != nil {
					return err
				}
			}
		}
		color[key] = black
		return nil
	}
	for name := range c.views {
		if err := visit(name, nil); err != nil {
			return err
		}
	}
	return nil
}

// Dependents returns name and every mediated schema defined over it,
// directly or through other schemas — the names whose answers change
// when name's does: the graph CheckAcyclic checks, walked backwards.
// Names come back lower-cased, as the catalog keys them.
func (c *Catalog) Dependents(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := []string{strings.ToLower(name)}
	for i := 0; i < len(out); i++ {
		changed := out[i]
		reads := func(dep string) bool { return strings.EqualFold(dep, changed) }
		for key := range c.views {
			if !slices.Contains(out, key) && slices.ContainsFunc(c.readsLocked(key), reads) {
				out = append(out, key)
			}
		}
	}
	return out
}

// readsLocked lists the names schema key's definitions read: its edges.
func (c *Catalog) readsLocked(key string) []string {
	var out []string
	for _, def := range c.views[key] {
		out = append(out, queryDeps(def.Query)...)
	}
	return out
}

// queryDeps returns the source/schema names a query references, at any
// nesting depth.
func queryDeps(q *xmlql.Query) []string {
	var out []string
	seen := map[string]bool{}
	var walkQuery func(*xmlql.Query)
	var walkTmpl func(*xmlql.TmplElem)
	var walkExpr func(xmlql.Expr)
	walkQuery = func(q *xmlql.Query) {
		for _, cond := range q.Where {
			switch x := cond.(type) {
			case *xmlql.PatternCond:
				if x.Source.Name != "" && !seen[strings.ToLower(x.Source.Name)] {
					seen[strings.ToLower(x.Source.Name)] = true
					out = append(out, x.Source.Name)
				}
			case *xmlql.PredicateCond:
				walkExpr(x.Expr)
			}
		}
		if q.Construct != nil {
			walkTmpl(q.Construct)
		}
	}
	walkTmpl = func(t *xmlql.TmplElem) {
		for _, c := range t.Content {
			switch x := c.(type) {
			case *xmlql.TmplChild:
				walkTmpl(x.Elem)
			case *xmlql.TmplQuery:
				walkQuery(x.Query)
			case *xmlql.TmplExpr:
				walkExpr(x.Expr)
			}
		}
	}
	walkExpr = func(e xmlql.Expr) {
		switch x := e.(type) {
		case *xmlql.BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *xmlql.FuncExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *xmlql.AggExpr:
			walkQuery(x.Query)
		}
	}
	walkQuery(q)
	return out
}

// QueryDeps exposes queryDeps for other layers (the materializer uses it
// to know which sources a view touches).
func QueryDeps(q *xmlql.Query) []string { return queryDeps(q) }

// StaticSource is a Source over a fixed in-memory document; useful for
// XML file sources and tests. Every fetch returns the same tree, which
// callers must not mutate, and the source indexes it (Indexed).
type StaticSource struct {
	name string
	caps Capabilities

	mu   sync.RWMutex
	snap *Snapshot // guarded by mu
}

// NewStaticSource wraps a document as a source with no query capability.
func NewStaticSource(name string, doc *xmldm.Node) *StaticSource {
	return &StaticSource{name: name, snap: NewSnapshot(doc)}
}

// Name implements Source.
func (s *StaticSource) Name() string { return s.name }

// Capabilities implements Source.
func (s *StaticSource) Capabilities() Capabilities { return s.caps }

func (s *StaticSource) current() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// Fetch implements Source. The cost counts the document's elements, which
// the index holds.
func (s *StaticSource) Fetch(_ context.Context, _ Request) (*xmldm.Node, Cost, error) {
	snap := s.current()
	n := snap.Index().Len()
	return snap.Doc(), Cost{RowsReturned: n, BytesMoved: n * 24}, nil
}

// IndexFor implements Indexed.
func (s *StaticSource) IndexFor(doc *xmldm.Node) *xmldm.ElemIndex {
	return s.current().IndexFor(doc)
}

// Replace swaps the document; used to simulate source-side updates in
// freshness experiments. The new document is indexed when first fetched.
func (s *StaticSource) Replace(doc *xmldm.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = NewSnapshot(doc)
}
