package sources

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/xmldm"
)

// DirectorySource is a hierarchical source in the style of an LDAP or
// IMS legacy system: data lives in a tree of entries addressed by
// slash-separated paths, and the only native query is a path lookup
// (optionally with a trailing wildcard selecting all children). It
// advertises KeyLookupOnly, so the optimizer knows that anything beyond
// a path lookup must be evaluated in the mediator.
//
// The whole-directory export — the only request the planner sends — is
// built once after a change and shared by every fetch until the next
// Put, like a StaticSource's document, and indexed (catalog.Indexed).
type DirectorySource struct {
	name string

	mu         sync.RWMutex
	root       *entry            // guarded by mu
	export     *catalog.Snapshot // guarded by mu; nil until fetched after a Put
	exportRows int               // guarded by mu
}

type entry struct {
	name     string
	attrs    map[string]string
	children []*entry
}

// NewDirectorySource creates an empty hierarchical source with the given
// root entry name.
func NewDirectorySource(name, rootEntry string) *DirectorySource {
	return &DirectorySource{name: name, root: &entry{name: rootEntry, attrs: map[string]string{}}}
}

// Put creates (or updates) the entry at the slash-separated path,
// creating intermediate entries as needed, and sets its attributes. The
// next whole export sees the change; fetches already made keep the
// document they got.
func (s *DirectorySource) Put(path string, attrs map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("sources: empty path")
	}
	s.export = nil
	cur := s.root
	for _, p := range parts {
		var next *entry
		for _, c := range cur.children {
			if c.name == p {
				next = c
				break
			}
		}
		if next == nil {
			next = &entry{name: p, attrs: map[string]string{}}
			cur.children = append(cur.children, next)
		}
		cur = next
	}
	for k, v := range attrs {
		cur.attrs[k] = v
	}
	return nil
}

func splitPath(path string) []string {
	var out []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Name implements catalog.Source.
func (s *DirectorySource) Name() string { return s.name }

// Capabilities implements catalog.Source.
func (s *DirectorySource) Capabilities() catalog.Capabilities {
	return catalog.Capabilities{KeyLookupOnly: true}
}

// Fetch implements catalog.Source. Request.Native is a path: "a/b/c"
// returns that entry's subtree; "a/b/*" returns all children of a/b; an
// empty path exports the whole directory, the shared snapshot.
func (s *DirectorySource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	if err := ctx.Err(); err != nil {
		return nil, catalog.Cost{}, err
	}
	if req.Native == "" {
		snap, count := s.snapshot()
		return snap.Doc(), catalog.Cost{RowsReturned: count, BytesMoved: count * 32}, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := []*entry{s.root}
	for _, p := range splitPath(req.Native) {
		var next []*entry
		for _, e := range cur {
			for _, c := range e.children {
				if p == "*" || c.name == p {
					next = append(next, c)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	root, count := s.exportOf(cur)
	return root, catalog.Cost{RowsReturned: count, BytesMoved: count * 32}, nil
}

// IndexFor implements catalog.Indexed for the current whole export.
func (s *DirectorySource) IndexFor(doc *xmldm.Node) *xmldm.ElemIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.export.IndexFor(doc)
}

// snapshot returns the whole export and its entry count, building it if
// a Put has invalidated it.
func (s *DirectorySource) snapshot() (*catalog.Snapshot, int) {
	s.mu.RLock()
	snap, count := s.export, s.exportRows
	s.mu.RUnlock()
	if snap != nil {
		return snap, count
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.export == nil {
		doc, count := s.exportOf([]*entry{s.root})
		s.export, s.exportRows = catalog.NewSnapshot(doc), count
	}
	return s.export, s.exportRows
}

// exportOf builds the document for the target entries and counts the
// entries in it; the caller holds mu.
func (s *DirectorySource) exportOf(targets []*entry) (*xmldm.Node, int) {
	root := &xmldm.Node{Name: s.name}
	count := 0
	for _, e := range targets {
		n := entryToNode(e, &count)
		n.Parent = root
		root.Children = append(root.Children, n)
	}
	xmldm.Finalize(root)
	return root, count
}

func entryToNode(e *entry, count *int) *xmldm.Node {
	*count++
	n := &xmldm.Node{Name: e.name}
	// Attributes export as child elements so patterns can bind them the
	// same way as relational columns, in name order for stable documents.
	keys := make([]string, 0, len(e.attrs))
	for k := range e.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := &xmldm.Node{Name: k, Parent: n, Children: []xmldm.Value{xmldm.String(e.attrs[k])}}
		n.Children = append(n.Children, c)
	}
	for _, child := range e.children {
		cn := entryToNode(child, count)
		cn.Parent = n
		n.Children = append(n.Children, cn)
	}
	return n
}
