package unusedignore_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sympack/internal/lint"
)

// TestUnusedIgnore runs the full suite over a small module with one live
// and two dead //lint:ignore directives. The live one suppresses a real
// errflow finding (which must stay out of the unsuppressed stream); the
// stale one must come back as an unusedignore finding at its own line,
// and so must the one naming an analyzer the suite does not have — in a
// full run that is a finding, not the "audit skipped" note a partial run
// gives.
func TestUnusedIgnore(t *testing.T) {
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

import "errors"

var ErrTransferFailed = errors.New("upcxx: transfer failed")

func Rget() error { return ErrTransferFailed }
`)
	write("internal/app/app.go", `package app

import "sympack/internal/upcxx"

func live() error {
	//lint:ignore errflow deliberate fire-and-forget prefetch
	upcxx.Rget()
	return upcxx.Rget()
}

func stale() error {
	//lint:ignore errflow nothing on the next line needs ignoring
	return upcxx.Rget()
}

func unknown() {
	//lint:ignore errflw a misspelt analyzer name suppresses nothing
	upcxx.Rget()
}
`)
	diags, fset, err := lint.RunModule(root, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		12: "suppresses no diagnostic",
		17: "names errflw, which is no analyzer of the suite",
	}
	var suppressed int
	for _, d := range diags {
		line := fset.Position(d.Pos).Line
		switch {
		case d.Suppressed:
			if d.Analyzer != "errflow" {
				t.Errorf("suppressed diagnostic from %s, want errflow", d.Analyzer)
			}
			suppressed++
		case d.Analyzer == "unusedignore" && !d.Note && want[line] != "":
			if !strings.Contains(d.Message, want[line]) {
				t.Errorf("line %d: unusedignore message = %q, want %q", line, d.Message, want[line])
			}
			delete(want, line)
		case d.Analyzer == "errflow" && line == 18:
			// The bare call under the unknown directive stays unsuppressed.
		default:
			t.Errorf("unexpected diagnostic: %s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed findings, want 1", suppressed)
	}
	for line, msg := range want {
		t.Errorf("no unusedignore finding at line %d (%q)", line, msg)
	}
}
