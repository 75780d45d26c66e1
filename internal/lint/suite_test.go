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

// TestCrossPackageFactFlow pins the tentpole: futureerr's consumption
// facts must flow from an analyzed dependency to its importer, so a
// future handed to a wrapper that provably ignores it is reported at the
// binding even though the blindness lives in another package.
func TestCrossPackageFactFlow(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module sympack\n\ngo 1.22\n")
	write("internal/upcxx/upcxx.go", `package upcxx

type Future struct{ err error }

func (f Future) Err() error   { return f.err }
func (f Future) OK() bool     { return f.err == nil }
func (f Future) Wait() float64 { return 0 }

func Start() Future { return Future{} }
`)
	write("internal/wrap/wrap.go", `package wrap

import "sympack/internal/upcxx"

// Swallow drops the future's error on the floor.
func Swallow(f upcxx.Future) { _ = f.Wait() }

// Check consults it.
func Check(f upcxx.Future) error { return f.Err() }
`)
	write("internal/app/app.go", `package app

import (
	"sympack/internal/upcxx"
	"sympack/internal/wrap"
)

func run() error {
	bad := upcxx.Start()
	wrap.Swallow(bad)
	good := upcxx.Start()
	return wrap.Check(good)
}
`)
	diags, fset, err := lint.RunModule(root, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want exactly 1 (the bad binding in app)", len(diags))
	}
	d := diags[0]
	if d.Analyzer != "futureerr" || !strings.Contains(d.Message, "bad") {
		t.Errorf("diagnostic = [%s] %s, want futureerr on binding of bad", d.Analyzer, d.Message)
	}
	if pos := fset.Position(d.Pos); filepath.Base(pos.Filename) != "app.go" {
		t.Errorf("diagnostic at %s, want app.go", pos)
	}
}

// TestAnalyzerNames pins the suite's membership and reporting order.
func TestAnalyzerNames(t *testing.T) {
	want := []string{"atomicconsistency", "ctxflow", "errflow", "futureerr", "goroutineleak", "lockorder", "mapiterdeterminism", "mutexguard", "nondetflow", "unusedignore", "wallclock"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}
