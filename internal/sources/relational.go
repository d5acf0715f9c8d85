// Package sources implements the source wrappers of the integration
// system: relational (SQL-speaking), hierarchical (path lookups only),
// XML document, and CSV sources, plus simulation wrappers that inject
// network latency and unavailability so the experiments can reproduce
// §3.4's source-availability behaviour without a real WAN.
package sources

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/xmldm"
)

// RelationalSource wraps an embedded rdb.Database as an integration
// source. It accepts SQL fragments (Request.Native) and exports results
// as XML documents: <table><row><col>v</col>…</row>…</table>. Without a
// fragment it exports whole tables, the behaviour the mediator falls
// back to when nothing can be pushed down.
type RelationalSource struct {
	name string
	db   *rdb.Database
	desc []catalog.RelationalDescriptor
}

// NewRelationalSource wraps db. Export descriptors are derived from the
// database schema: each table exports rows as <RowElement> elements
// (singularized table name) with one child element per column. They are
// taken here, once; rdb tables cannot be dropped, so none names a missing
// table later.
func NewRelationalSource(name string, db *rdb.Database) *RelationalSource {
	s := &RelationalSource{name: name, db: db}
	for _, tn := range db.TableNames() {
		t, err := db.Table(tn)
		if err != nil {
			continue
		}
		d := catalog.RelationalDescriptor{
			Table:          tn,
			RowElement:     singular(tn),
			ColumnElements: make(map[string]string),
		}
		for i, c := range t.Schema.Columns {
			d.ColumnElements[strings.ToLower(c.Name)] = strings.ToLower(c.Name)
			if i == t.Schema.PrimaryKey {
				d.KeyColumn = strings.ToLower(c.Name)
				d.IndexedColumns = append(d.IndexedColumns, strings.ToLower(c.Name))
			} else if db.HasIndex(tn, c.Name) {
				d.IndexedColumns = append(d.IndexedColumns, strings.ToLower(c.Name))
			}
		}
		s.desc = append(s.desc, d)
	}
	return s
}

// singular derives a row element name from a table name: customers →
// customer; a trailing 's' is stripped unless that would empty the name.
func singular(table string) string {
	t := strings.ToLower(table)
	if len(t) > 1 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		return t[:len(t)-1]
	}
	return t
}

// Name implements catalog.Source.
func (s *RelationalSource) Name() string { return s.name }

// Capabilities implements catalog.Source: SQL sources evaluate
// selections, projections, joins and ordering.
func (s *RelationalSource) Capabilities() catalog.Capabilities {
	return catalog.Capabilities{Selection: true, Projection: true, Ordering: true}
}

// Descriptors implements catalog.Relational.
func (s *RelationalSource) Descriptors() []catalog.RelationalDescriptor { return s.desc }

// TableStats implements catalog.Stats from the database's live counters.
func (s *RelationalSource) TableStats(table string) (catalog.TableStats, bool) {
	if _, err := s.db.Table(table); err != nil {
		return catalog.TableStats{}, false
	}
	return catalog.TableStats{Rows: s.db.RowCount(table)}, true
}

// DB exposes the underlying database for test fixtures. Its tables only
// grow: writers, such as experiment E1 between its queries, insert rows.
func (s *RelationalSource) DB() *rdb.Database { return s.db }

// Fetch implements catalog.Source. With a SQL fragment, the result
// columns become child elements named by the output column (the export
// of FetchRows' answer); without one, the whole named table (or all
// tables) export in full.
func (s *RelationalSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	if req.Native != "" {
		res, cost, err := s.FetchRows(ctx, req)
		if err != nil {
			return nil, cost, err
		}
		return RowsDocument(s.name, req, res), cost, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, catalog.Cost{}, err
	}
	// Full export of one table or all tables; each table's rows move with
	// that table's width.
	root := &xmldm.Node{Name: s.name}
	var cost catalog.Cost
	for _, d := range s.desc {
		if req.Collection != "" && !strings.EqualFold(req.Collection, d.Table) {
			continue
		}
		res, err := s.db.Exec("SELECT * FROM " + d.Table)
		if err != nil {
			return nil, catalog.Cost{}, fmt.Errorf("sources: %s: %w", s.name, err)
		}
		appendResultRows(root, d.RowElement, res)
		cost.RowsReturned += len(res.Rows)
		cost.BytesMoved += len(res.Rows) * (len(res.Columns) + 1) * 16
	}
	xmldm.Finalize(root)
	return root, cost, nil
}

// FetchesRows implements catalog.RowFetcher.
func (s *RelationalSource) FetchesRows() bool { return true }

// FetchRows implements catalog.RowFetcher: it runs a SQL fragment and
// returns its result, costed as Fetch costs the fragment's export. The
// result shares the table's rows, read through Result.Pos, and must not
// be written. A request without a fragment is an error: a whole-table
// export is a document.
func (s *RelationalSource) FetchRows(ctx context.Context, req catalog.Request) (*rdb.Result, catalog.Cost, error) {
	if err := ctx.Err(); err != nil {
		return nil, catalog.Cost{}, err
	}
	if req.Native == "" {
		return nil, catalog.Cost{}, fmt.Errorf("sources: %s: rows are answered for a SQL fragment only", s.name)
	}
	res, err := s.db.Exec(req.Native)
	if err != nil {
		return nil, catalog.Cost{}, fmt.Errorf("sources: %s: %w", s.name, err)
	}
	return res, catalog.Cost{RowsReturned: len(res.Rows), BytesMoved: len(res.Rows) * len(res.Columns) * 16}, nil
}

// RowsDocument is the XML export of a fragment's result rows:
// <source><rowElem>…</rowElem>…</source>, one row element per row, named
// after the request's collection (singularized), or "row".
func RowsDocument(source string, req catalog.Request, res *rdb.Result) *xmldm.Node {
	rowElem := "row"
	if req.Collection != "" {
		rowElem = singular(req.Collection)
	}
	root := &xmldm.Node{Name: source}
	appendResultRows(root, rowElem, res)
	xmldm.Finalize(root)
	return root
}

// appendResultRows appends one rowElem element per result row, each with
// one child element per column. The whole result is carved from two slabs
// (one of nodes, one of child slots), every sub-slice capped at its own
// length so that an append to one node's children can never reach its
// neighbour's. A cell's text is the box the database stored with the row
// (rdb.Result.Text); NULL exports as an empty element.
func appendResultRows(root *xmldm.Node, rowElem string, res *rdb.Result) {
	rows, cols := len(res.Rows), len(res.Columns)
	if rows == 0 {
		return
	}
	nodes := make([]xmldm.Node, rows*(1+cols))
	slots := make([]xmldm.Value, 2*rows*cols)
	root.Children = slices.Grow(root.Children, rows)
	for _, row := range res.Rows {
		r, cells := &nodes[0], nodes[1:1+cols]
		nodes = nodes[1+cols:]
		kids, texts := slots[:cols:cols], slots[cols:2*cols]
		slots = slots[2*cols:]
		r.Name, r.Parent, r.Children = rowElem, root, kids
		for i, col := range res.Columns {
			c := &cells[i]
			c.Name, c.Parent = col, r
			if v := res.Text(row, i); v != nil {
				c.Children = texts[i : i+1 : i+1]
				c.Children[0] = v
			}
			kids[i] = c
		}
		root.Children = append(root.Children, r)
	}
}
