// Package matview implements the compound architecture of §3.3: "the
// system should be configurable to query on demand as well as
// materialize some data locally". One materializes views over the
// mediated schema — not a warehouse schema — and the query processor
// uses the local copies when available. Refresh is manual, periodic
// (TTL), or on-demand at lookup time.
//
// The package also contains the view-selection advisor for the research
// challenge §3.3 poses: "algorithms that decide which data (and over
// which sources) need to be materialized", adapting to the query load.
package matview

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmldm"
)

// RefreshMode selects when a stale entry is refreshed.
type RefreshMode int

const (
	// RefreshManual: entries only change on explicit Refresh calls.
	RefreshManual RefreshMode = iota
	// RefreshOnDemand: a stale entry is refreshed synchronously when a
	// query touches it.
	RefreshOnDemand
	// RefreshStale: a stale entry is a miss; queries go back to the
	// sources until someone refreshes.
	RefreshStale
)

// Entry is one locally materialized mediated schema.
type Entry struct {
	Schema      string
	RefreshedAt time.Time
	Elements    int
	Hits        int64
	Refreshes   int64
}

type entry struct {
	Entry
	doc *xmldm.Node
}

// Manager owns the local materialized store and plugs itself into an
// engine as its local store.
type Manager struct {
	eng *core.Engine

	mu      sync.RWMutex
	entries map[string]*entry // guarded by mu

	// TTL after which an entry counts as stale; 0 means never stale.
	TTL time.Duration // guarded by mu
	// Mode selects the stale behaviour.
	Mode RefreshMode // guarded by mu
	// Clock is replaceable for tests and staleness experiments.
	Clock func() time.Time // guarded by mu

	// observability, nil (no-op) until SetMetrics.
	metrics    *obs.Registry // guarded by mu
	mRefreshes *obs.Counter  // guarded by mu

	onChange func(schema string) // guarded by mu
}

// OnChange has fn called, outside the lock, with every schema whose local
// copy was stored, replaced or dropped — by any mutator, an on-demand
// refresh, or an Advisor applying its decision (cluster.Invalidate).
func (m *Manager) OnChange(fn func(schema string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onChange = fn
}

// SetMetrics mirrors the store into a metrics registry: a refresh
// counter, an entry-count gauge, and one staleness-age gauge per
// materialized schema (registered as schemas materialize).
func (m *Manager) SetMetrics(reg *obs.Registry) {
	m.mu.Lock()
	m.metrics = reg
	m.mRefreshes = reg.Counter("nimble_matview_refresh_total")
	m.mu.Unlock()
	reg.GaugeFunc("nimble_matview_entries", func() float64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return float64(len(m.entries))
	})
}

// NewManager creates a manager and installs it on the engine.
func NewManager(eng *core.Engine) *Manager {
	m := &Manager{
		eng:      eng,
		entries:  make(map[string]*entry),
		Clock:    time.Now,
		onChange: func(string) {},
	}
	eng.SetLocalStore(m.lookup, m.holds)
	return m
}

// Materialize computes and stores the schema's document. It fails if
// the computation was incomplete (a half-materialized view would
// silently lose data on every later query).
func (m *Manager) Materialize(ctx context.Context, schema string) error {
	doc, comp, err := m.eng.MaterializeSchema(ctx, schema)
	if err != nil {
		return err
	}
	if !comp.Complete {
		return fmt.Errorf("matview: refusing to materialize %q from incomplete sources %v", schema, comp.FailedSources())
	}
	key := strings.ToLower(schema)
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &entry{Entry: Entry{Schema: schema}}
		m.entries[key] = e
	}
	e.doc = doc
	e.RefreshedAt = m.Clock()
	e.Elements = doc.CountElements()
	e.Refreshes++
	reg := m.metrics
	cnt := m.mRefreshes
	changed := m.onChange
	m.mu.Unlock()
	cnt.Inc()
	if reg != nil {
		reg.GaugeFunc("nimble_matview_staleness_seconds", func() float64 {
			age, ok := m.Staleness(schema)
			if !ok {
				return -1 // dropped: no local copy
			}
			return age.Seconds()
		}, "schema", key)
	}
	changed(schema)
	return nil
}

// Drop removes a materialized schema.
func (m *Manager) Drop(schema string) {
	m.mu.Lock()
	delete(m.entries, strings.ToLower(schema))
	changed := m.onChange
	m.mu.Unlock()
	changed(schema)
}

// Refresh re-materializes an existing entry.
func (m *Manager) Refresh(ctx context.Context, schema string) error {
	m.mu.RLock()
	_, ok := m.entries[strings.ToLower(schema)]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("matview: schema %q is not materialized", schema)
	}
	return m.Materialize(ctx, schema)
}

// RefreshAll refreshes every entry; the periodic-refresh driver.
func (m *Manager) RefreshAll(ctx context.Context) error {
	for _, name := range m.Materialized() {
		if err := m.Refresh(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// StartPeriodicRefresh launches a background loop refreshing every
// entry each interval — the classic warehouse loading program (§3.3's
// "writing programs that load the data from the data sources to the
// warehouse periodically"), here one line of configuration. The loop
// stops when ctx is cancelled; refresh errors go to onErr (may be nil).
func (m *Manager) StartPeriodicRefresh(ctx context.Context, interval time.Duration, onErr func(error)) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := m.RefreshAll(ctx); err != nil && onErr != nil && ctx.Err() == nil {
					onErr(err)
				}
			}
		}
	}()
}

// Materialized lists the materialized schema names, sorted.
func (m *Manager) Materialized() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, e := range m.entries {
		out = append(out, e.Schema)
	}
	sort.Strings(out)
	return out
}

// Entries reports a snapshot of the store.
func (m *Manager) Entries() []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Entry
	for _, e := range m.entries {
		out = append(out, e.Entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Schema < out[j].Schema })
	return out
}

// Staleness returns how old a schema's local copy is, and whether one
// exists.
func (m *Manager) Staleness(schema string) (time.Duration, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[strings.ToLower(schema)]
	if !ok {
		return 0, false
	}
	return m.Clock().Sub(e.RefreshedAt), true
}

// holds reports whether queries over the schema should skip unfolding
// because the store will answer them.
func (m *Manager) holds(schema string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[strings.ToLower(schema)]
	if !ok {
		return false
	}
	if m.isStaleLocked(e) && m.Mode == RefreshStale {
		return false
	}
	return true
}

// isStaleLocked reports staleness; the caller holds mu.
func (m *Manager) isStaleLocked(e *entry) bool {
	return m.TTL > 0 && m.Clock().Sub(e.RefreshedAt) > m.TTL
}

// Lookup is the exported form of the local-store hook, for wiring the
// manager into additional engine instances.
func (m *Manager) Lookup(source string, req catalog.Request) (*xmldm.Node, bool) {
	return m.lookup(source, req)
}

// Holds is the exported form of the skip-unfolding predicate.
func (m *Manager) Holds(schema string) bool { return m.holds(schema) }

// lookup is the engine's local-store hook.
func (m *Manager) lookup(source string, _ catalog.Request) (*xmldm.Node, bool) {
	key := strings.ToLower(source)
	m.mu.RLock()
	e, ok := m.entries[key]
	if !ok {
		m.mu.RUnlock()
		return nil, false
	}
	stale := m.isStaleLocked(e)
	mode := m.Mode
	doc := e.doc
	m.mu.RUnlock()

	if stale {
		switch mode {
		case RefreshOnDemand:
			// Synchronous refresh keeps the local answer fresh at the
			// price of one materialization.
			if err := m.Materialize(context.Background(), source); err == nil {
				m.mu.RLock()
				e = m.entries[key]
				doc = e.doc
				m.mu.RUnlock()
			}
		case RefreshStale:
			return nil, false
		}
	}
	m.mu.Lock()
	e.Hits++
	m.mu.Unlock()
	return doc, true
}
