package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
)

func TestSpanFinish(t *testing.T) {
	atest.Run(t, "testdata/src/spanfinish", analysis.SpanFinish)
}

func TestOpClose(t *testing.T) {
	atest.Run(t, "testdata/src/opclose", analysis.OpClose)
}

func TestGuardedBy(t *testing.T) {
	atest.Run(t, "testdata/src/guardedby", analysis.GuardedBy)
}

func TestLockOrder(t *testing.T) {
	atest.Run(t, "testdata/src/lockorder", analysis.LockOrder)
}

func TestSQLSafe(t *testing.T) {
	atest.Run(t, "testdata/src/sqlsafe", analysis.SQLSafe)
}

// TestSuppression checks the //lint:ignore directive end to end: the
// corpus provokes two identical spanfinish findings, one under a
// well-formed directive (suppressed) and one under a reasonless
// directive (kept — the reason is mandatory).
func TestSuppression(t *testing.T) {
	target, err := analysis.NewLoader().CheckDir("testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	diags, err := analysis.Run(target, []*analysis.Analyzer{analysis.SpanFinish})
	if err != nil {
		t.Fatalf("running spanfinish: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d raw diagnostics, want 2: %+v", len(diags), diags)
	}
	kept, suppressed := analysis.Filter(target.Fset, target.Files, diags)
	if len(kept) != 1 || len(suppressed) != 1 {
		t.Fatalf("got %d kept / %d suppressed, want 1 / 1", len(kept), len(suppressed))
	}
	// The kept finding must be the one under the reasonless directive.
	keptLine := target.Fset.Position(kept[0].Pos).Line
	supLine := target.Fset.Position(suppressed[0].Pos).Line
	if keptLine <= supLine {
		t.Errorf("kept diagnostic at line %d, suppressed at line %d; expected the reasonless (later) one kept", keptLine, supLine)
	}
}

// TestLoaderTypes checks that the source loader produces complete type
// information for a real module package.
func TestLoaderTypes(t *testing.T) {
	targets, err := analysis.NewLoader().LoadTargets([]string{"repro/internal/obs"})
	if err != nil {
		t.Fatalf("LoadTargets: %v", err)
	}
	if len(targets) != 1 {
		t.Fatalf("got %d targets, want 1", len(targets))
	}
	tg := targets[0]
	if tg.Path != "repro/internal/obs" {
		t.Errorf("target path = %q", tg.Path)
	}
	if len(tg.TypeErrors) != 0 {
		t.Errorf("type errors: %v", tg.TypeErrors)
	}
	if len(tg.Info.Uses) == 0 {
		t.Error("no uses recorded; type info is empty")
	}
}

// TestRegistry keeps the suite roster and name lookup honest.
func TestRegistry(t *testing.T) {
	want := []string{"spanfinish", "opclose", "guardedby", "lockorder", "sqlsafe"}
	var got []string
	for _, a := range analysis.Analyzers() {
		got = append(got, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
	if analysis.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) != nil")
	}
}
