package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sympack/internal/lint"
)

// moduleRoot walks up from the test's working directory to the enclosing
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestSuiteCleanOnRepo is the dogfooding gate: the full analyzer suite
// must exit clean over this repository (every true positive fixed, every
// audited false positive suppressed with a reason). It is the test-shaped
// twin of `go run ./cmd/sympacklint ./...` exiting 0.
func TestSuiteCleanOnRepo(t *testing.T) {
	diags, fset, err := lint.RunModule(moduleRoot(t), lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue // audited exceptions; unusedignore keeps them honest
		}
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestAnalyzerNames pins the suite's membership and reporting order.
func TestAnalyzerNames(t *testing.T) {
	want := []string{"atomicconsistency", "ctxflow", "errflow", "goroutineleak", "lockorder", "mutexguard", "nondetflow", "unusedignore"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}
