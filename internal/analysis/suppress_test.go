package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// parseSrc parses one synthetic file (no type checking — suppression is
// purely syntactic).
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

// lineStart returns a Pos on the given 1-based line.
func lineStart(fset *token.FileSet, files []*ast.File, line int) token.Pos {
	return fset.File(files[0].Pos()).LineStart(line)
}

func diagAt(pos token.Pos, analyzer string) analysis.Diagnostic {
	return analysis.Diagnostic{Pos: pos, Analyzer: analyzer, Message: "synthetic"}
}

// TestFilterMultiAnalyzerDirective: one directive naming two analyzers
// suppresses findings from both on its line and the next, and nothing
// else.
func TestFilterMultiAnalyzerDirective(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore spanfinish,opclose both stem from the handoff in drain
var x = 1
`)
	dirLine, nextLine := 3, 4
	diags := []analysis.Diagnostic{
		diagAt(lineStart(fset, files, dirLine), "spanfinish"),
		diagAt(lineStart(fset, files, nextLine), "opclose"),
		diagAt(lineStart(fset, files, nextLine), "sqlsafe"), // not named: kept
	}
	kept, suppressed := analysis.Filter(fset, files, diags)
	if len(kept) != 1 || len(suppressed) != 2 {
		t.Fatalf("kept %d / suppressed %d, want 1 / 2", len(kept), len(suppressed))
	}
	if kept[0].Analyzer != "sqlsafe" {
		t.Errorf("kept %q, want the unnamed analyzer sqlsafe", kept[0].Analyzer)
	}
}

// TestFilterNewAnalyzerNames: the directive machinery works for the
// dataflow analyzers' names just like the first generation's.
func TestFilterNewAnalyzerNames(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore lockorder,sqlsafe the alias is quoted by the caller under its lock
var x = 1
`)
	pos := lineStart(fset, files, 4)
	diags := []analysis.Diagnostic{
		diagAt(pos, "lockorder"),
		diagAt(pos, "sqlsafe"),
	}
	kept, suppressed := analysis.Filter(fset, files, diags)
	if len(kept) != 0 || len(suppressed) != 2 {
		t.Fatalf("kept %d / suppressed %d, want 0 / 2", len(kept), len(suppressed))
	}
}

// TestFilterScopeIsTwoLines: a directive does not reach past the line
// directly below it.
func TestFilterScopeIsTwoLines(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore opclose cleanup happens in the caller
var x = 1
var y = 2
`)
	diags := []analysis.Diagnostic{diagAt(lineStart(fset, files, 5), "opclose")}
	kept, suppressed := analysis.Filter(fset, files, diags)
	if len(kept) != 1 || len(suppressed) != 0 {
		t.Fatalf("kept %d / suppressed %d, want 1 / 0 (two lines past the directive)", len(kept), len(suppressed))
	}
}

// TestCheckDirectivesUnknownName: a typo in a directive's analyzer list
// is itself a finding; well-formed names are not.
func TestCheckDirectivesUnknownName(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore lockodrer the queue drains on close
var x = 1

//lint:ignore lockorder,sqlsafe the queue drains on close
var y = 2
`)
	diags := analysis.CheckDirectives(fset, files)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "suppress" {
		t.Errorf("analyzer = %q, want suppress", d.Analyzer)
	}
	if !strings.Contains(d.Message, `unknown analyzer "lockodrer"`) {
		t.Errorf("message = %q", d.Message)
	}
	if line := fset.Position(d.Pos).Line; line != 3 {
		t.Errorf("reported at line %d, want 3", line)
	}
}

// TestCheckDirectivesIgnoresReasonless: a reasonless directive already
// suppresses nothing, so its names are not checked either.
func TestCheckDirectivesIgnoresReasonless(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore nosuchanalyzer
var x = 1
`)
	if diags := analysis.CheckDirectives(fset, files); len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want 0 (reasonless directives are inert)", len(diags))
	}
}
