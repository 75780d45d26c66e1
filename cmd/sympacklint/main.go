// Command sympacklint runs the sympack static-analysis suite, the eight
// analyzers of DESIGN.md §10 that mechanically enforce the solver's
// determinism, atomicity, context, error, goroutine and locking
// invariants:
//
//	go run ./cmd/sympacklint [-json] ./...
//
// It loads the enclosing module with the stdlib-only loader
// (internal/lint/load), analyzes every package in dependency order against
// one in-process fact store, and exits 2 if any diagnostic survives the
// //lint:ignore audit, so CI can gate on it. Usage errors exit 1.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sympack/internal/lint"
	"sympack/internal/lint/analysis"

	"go/token"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	jsonOut := false
	for _, a := range args {
		switch a {
		case "-h":
			help()
			return 0
		case "-json":
			jsonOut = true
		case "./...":
			// The only pattern: the whole enclosing module.
		default:
			fmt.Fprintf(os.Stderr, "sympacklint: unexpected argument %q\n%s\n", a, usageLine)
			return 1
		}
	}
	return lintModule(jsonOut)
}

const usageLine = "usage: sympacklint [-json] [./...]"

func help() {
	fmt.Printf("%s\n\nanalyzers:\n", usageLine)
	for _, a := range lint.Analyzers() {
		fmt.Printf("  %-20s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nsuppress an audited finding with: //lint:ignore <analyzer> <reason>\n")
	fmt.Printf("-json emits one diagnostic per line (file, line, analyzer, message,\nsuppressed, note) including audited suppressions; the exit code still\ncounts only unsuppressed findings\n")
}

// jsonDiagnostic is the -json wire format: one object per line, stable
// field set, so CI can archive and diff lint reports mechanically. File
// is module-root-relative and slash-separated, so reports diff cleanly
// across checkouts and platforms.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Note       bool   `json:"note,omitempty"`
}

func printJSON(w io.Writer, modRoot string, fset *token.FileSet, d analysis.Diagnostic) {
	pos := fset.Position(d.Pos)
	out, _ := json.Marshal(jsonDiagnostic{
		File:       relFile(modRoot, pos.Filename),
		Line:       pos.Line,
		Analyzer:   d.Analyzer,
		Message:    d.Message,
		Suppressed: d.Suppressed,
		Note:       d.Note,
	})
	fmt.Fprintf(w, "%s\n", out)
}

// relFile renders a file path relative to the module root,
// slash-separated, so -json reports are portable across checkouts.
func relFile(modRoot, name string) string {
	if rel, err := filepath.Rel(modRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

func lintModule(jsonOut bool) int {
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	modRoot, err := findModuleRoot(wd)
	if err != nil {
		return fail(err)
	}
	diags, fset, err := lint.RunModule(modRoot, lint.Analyzers())
	if err != nil {
		return fail(err)
	}

	findings := 0
	for _, d := range diags {
		gates := !d.Suppressed && !d.Note
		switch {
		case jsonOut:
			printJSON(os.Stdout, modRoot, fset, d)
		case d.Note:
			fmt.Printf("%s: note: [%s] %s\n", relTo(wd, fset.Position(d.Pos)), d.Analyzer, d.Message)
		case gates:
			fmt.Printf("%s: [%s] %s\n", relTo(wd, fset.Position(d.Pos)), d.Analyzer, d.Message)
		}
		if gates {
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "sympacklint: %d finding(s)\n", findings)
		return 2
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sympacklint:", err)
	return 1
}

// relTo renders a position with a path relative to the working directory
// when that is shorter, matching go vet's output style.
func relTo(wd string, pos token.Position) string {
	if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = rel
	}
	return pos.String()
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
