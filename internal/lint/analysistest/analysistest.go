// Package analysistest runs analyzers over a testdata source tree and
// checks their diagnostics against `// want "regexp"` annotations,
// following the conventions of golang.org/x/tools/go/analysis/analysistest
// (which the stdlib-only build cannot vendor). A want comment asserts that
// an analyzer reports on its line with a message matching each quoted
// regular expression; lines without a want must stay silent. Suppression
// directives (//lint:ignore) are honored exactly as in the production
// runner, so testdata can pin the escape hatch's behavior too.
//
// Layout mirrors upstream: <testdata>/src/<importpath>/*.go, loaded
// GOPATH-style, so testdata packages can use the real import paths the
// analyzers gate on ("sympack/internal/core") against small fake
// dependencies ("sympack/internal/upcxx").
//
// RunSuite runs several analyzers together over packages analyzed in the
// order given, through the module runner's own per-package driver
// (lint.RunPackageFacts) and one shared fact store — list a dependency
// before its importer and cross-package facts flow exactly as in
// lint.RunModule.
// The unusedignore audit is active when that analyzer is in the suite.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sympack/internal/lint"
	"sympack/internal/lint/analysis"
	"sympack/internal/lint/load"
)

// Run loads each import path from testdata/src and applies the analyzer,
// reporting mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, importPaths...)
}

// RunSuite applies a set of analyzers to each import path in order, with
// facts shared across packages and analyzers.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, importPaths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	loader := load.NewTreeLoader(srcRoot)
	store := analysis.NewFactStore()
	for _, path := range importPaths {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		pkg, err := loader.LoadDir(path, dir)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		diags, err := lint.RunPackageFacts(pkg, analyzers, store)
		if err != nil {
			t.Errorf("analyzing %s: %v", path, err)
			continue
		}
		// Suppressed findings are invisible to want annotations, exactly
		// as they are invisible to the production exit code.
		check(t, pkg, analysis.Unsuppressed(diags))
	}
}

// expectation is one unmatched want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

func check(t *testing.T, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ws, err := parseWants(pkg.Fset.Position(c.Pos()), c.Text)
				if err != nil {
					t.Error(err)
					continue
				}
				wants = append(wants, ws...)
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !consume(wants, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// consume marks the first unmatched want on pos's line whose regexp
// matches msg, returning false if none does.
func consume(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.re != nil && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.re = nil
			return true
		}
	}
	return false
}

// parseWants extracts the quoted regexps of a `// want "..." "..."`
// comment, if any.
func parseWants(pos token.Position, comment string) ([]*expectation, error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil, nil
	}
	var out []*expectation
	rest = strings.TrimSpace(rest)
	for rest != "" {
		if rest[0] != '"' {
			return nil, fmt.Errorf("%s: malformed want: expected quoted regexp at %q", pos, rest)
		}
		// Find the end of the Go-quoted string (respecting escapes).
		end := 1
		for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
			end++
		}
		if end == len(rest) {
			return nil, fmt.Errorf("%s: malformed want: unterminated string", pos)
		}
		quoted := rest[:end+1]
		s, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, fmt.Errorf("%s: malformed want %s: %v", pos, quoted, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, s, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: s})
		rest = strings.TrimSpace(rest[end+1:])
	}
	return out, nil
}
