// Package analysis is nimble-lint's invariant-checking suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) carrying custom analyzers that
// encode Nimble's own plumbing rules — invariants go vet cannot see
// because they are about this codebase's contracts, not the language:
//
//   - spanfinish: every obs.SpanRef started in a function is Finished on
//     all paths, or escapes to an owner who will finish it.
//   - opclose: every algebra operator whose Open succeeded has Close
//     reachable, including the error paths of later Opens.
//   - guardedby: struct fields annotated "guarded by <mu>" are only
//     touched while that mutex is held.
//   - lockorder: the lock-acquisition graph across the module has no
//     cycle, and no function re-acquires a mutex it holds.
//
// The suite runs as `go run ./cmd/nimble-lint ./...` (wired into
// `make check` and CI) and is exercised by analysistest-style corpora
// under testdata/. There is no suppression directive: a false positive
// is fixed in the code or in the analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real multichecker if the dependency ever becomes available.
type Analyzer struct {
	// Name is the identifier used in diagnostics and the -list roster.
	Name string
	// Doc is the one-paragraph description shown by nimble-lint -list.
	Doc string
	// Run reports violations on the pass via Pass.Reportf.
	Run func(*Pass) error
	// Finish, when set, runs once after every target in a Session has
	// been analyzed and reports suite-level diagnostics — conclusions
	// that need facts from more than one package, like lockorder's
	// lock-acquisition graph.
	Finish func(*Session) []Diagnostic
}

// Pass carries one package's syntax and types through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Session is the suite run this pass belongs to (never nil); Run
	// hooks use it to accumulate cross-package state for Finish.
	Session *Session

	diags []Diagnostic
}

// Session accumulates state across every target analyzed in one
// nimble-lint invocation so Finish hooks can draw whole-program
// conclusions.
type Session struct {
	Fset  *token.FileSet
	state map[*Analyzer]any
}

// NewSession starts a suite run over targets sharing fset.
func NewSession(fset *token.FileSet) *Session {
	return &Session{Fset: fset, state: make(map[*Analyzer]any)}
}

// State returns the accumulator for a, creating it with mk on first use.
func (s *Session) State(a *Analyzer, mk func() any) any {
	v, ok := s.state[a]
	if !ok {
		v = mk()
		s.state[a] = v
	}
	return v
}

// RunTarget executes the analyzers over one loaded package, returning
// that package's diagnostics sorted by position.
func (s *Session) RunTarget(t *Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
			Session:   s,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	sortDiags(out)
	return out, nil
}

// FinishAll runs every Finish hook and returns the suite-level
// diagnostics, sorted.
func (s *Session) FinishAll(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Finish != nil {
			out = append(out, a.Finish(s)...)
		}
	}
	sortDiags(out)
	return out
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{SpanFinish, OpClose, GuardedBy, LockOrder}
}

// Run executes the analyzers over one loaded package — including any
// Finish hooks, scoped to just this target — and returns the
// diagnostics sorted by position. Multi-target callers should drive a
// Session directly so Finish sees the whole program.
func Run(t *Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	s := NewSession(t.Fset)
	out, err := s.RunTarget(t, analyzers)
	if err != nil {
		return nil, err
	}
	out = append(out, s.FinishAll(analyzers)...)
	sortDiags(out)
	return out, nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos < ds[j].Pos
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}
