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

// TestRegistry keeps the suite roster honest.
func TestRegistry(t *testing.T) {
	want := []string{"spanfinish", "opclose", "guardedby", "lockorder"}
	var got []string
	for _, a := range analysis.Analyzers() {
		got = append(got, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}
