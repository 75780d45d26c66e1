package unusedignore_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sympack/internal/lint"
)

// TestUnusedIgnore runs the full suite over a small module with one live
// and one stale //lint:ignore directive. The live one suppresses a real
// errflow finding (which must stay out of the unsuppressed stream); the
// stale one must come back as an unusedignore finding at its own line.
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
`)
	diags, fset, err := lint.RunModule(root, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, unused int
	for _, d := range diags {
		switch {
		case d.Suppressed:
			if d.Analyzer != "errflow" {
				t.Errorf("suppressed diagnostic from %s, want errflow", d.Analyzer)
			}
			suppressed++
		case d.Analyzer == "unusedignore":
			if !strings.Contains(d.Message, "suppresses no diagnostic") {
				t.Errorf("unusedignore message = %q", d.Message)
			}
			if line := fset.Position(d.Pos).Line; line != 12 {
				t.Errorf("unusedignore reported at line %d, want 12 (the stale directive)", line)
			}
			unused++
		default:
			t.Errorf("unexpected diagnostic: %s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if suppressed != 1 || unused != 1 {
		t.Errorf("got %d suppressed + %d unusedignore findings, want 1 + 1", suppressed, unused)
	}
}
