package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Suppression implements the audited escape hatch:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive silences matching diagnostics reported on its own line or
// on the line immediately below it (covering both trailing comments and the
// conventional comment-above-the-statement placement); a directive
// separated from the code by a blank line suppresses nothing. The reason is
// mandatory: an //lint:ignore with no reason is itself reported, under the
// pseudo-analyzer name "lint", so a suppression can never silently lose its
// justification. The analyzer list may be the wildcard "*" only in
// testdata; production code must name the check it overrides.
//
// The audit keeps the whole suppression table: Audit marks suppressed
// diagnostics instead of deleting them, and — when the unusedignore
// analyzer is in the run — reports every directive that suppressed
// nothing, staticcheck-style, so stale escape hatches cannot linger after
// the finding they once justified is gone, and, in a full run, every
// directive naming an analyzer the suite does not have.

type ignoreDirective struct {
	pos       token.Pos
	line      int
	analyzers []string
	used      bool
}

// directiveRe tolerates leading tabs and runs of spaces between the
// comment marker and the directive keyword ("//  lint:ignore", "//\t..."),
// which gofmt-preserved alignment can introduce.
var directiveRe = regexp.MustCompile(`^//[ \t]*lint:ignore([ \t]+(.*))?$`)

// parseIgnore extracts a lint:ignore directive from one comment, if
// present. ok reports whether the comment is a directive at all; a
// directive with a missing analyzer list or reason yields rest == "".
func parseIgnore(text string) (rest string, ok bool) {
	m := directiveRe.FindStringSubmatch(text)
	if m == nil {
		return "", false
	}
	return strings.TrimSpace(m[2]), true
}

// collectIgnores scans all comments of all files for lint:ignore
// directives. Malformed directives (missing analyzer list or reason) are
// returned as diagnostics.
func collectIgnores(fset *token.FileSet, files []*ast.File) (byFile map[string][]*ignoreDirective, malformed []Diagnostic) {
	byFile = map[string][]*ignoreDirective{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
						Analyzer: "lint",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				byFile[pos.Filename] = append(byFile[pos.Filename], &ignoreDirective{
					pos:       c.Pos(),
					line:      pos.Line,
					analyzers: strings.Split(fields[0], ","),
				})
			}
		}
	}
	return byFile, malformed
}

// A ConsumedIgnore records an //lint:ignore directive consumed by an
// analyzer mid-analysis (through Pass.MarkIgnoreUsed) rather than by
// suppressing a reported diagnostic: pos is the position of the code the
// directive acted on, analyzer the check that honored it. Audit treats a
// matching directive as used.
type ConsumedIgnore struct {
	Pos      token.Pos
	Analyzer string
}

// An IgnoreIndex answers, for analyzers that honor suppressions inside
// their own propagation (taint kills) instead of at report time, whether
// an //lint:ignore directive for a given analyzer covers a position. The
// coverage rule is identical to diagnostic suppression: the directive's
// own line or the line immediately below it. Analyzers that kill work
// through a covering directive must also call Pass.MarkIgnoreUsed (or
// ConsumeIgnore) so the audit sees the directive as live.
type IgnoreIndex struct {
	fset   *token.FileSet
	byFile map[string][]*ignoreDirective
}

// NewIgnoreIndex scans the files' comments once and builds the index.
// Malformed directives are dropped here; the audit reports them.
func NewIgnoreIndex(fset *token.FileSet, files []*ast.File) *IgnoreIndex {
	byFile, _ := collectIgnores(fset, files)
	return &IgnoreIndex{fset: fset, byFile: byFile}
}

// Covers reports whether an //lint:ignore directive naming analyzer (or
// the wildcard) covers pos.
func (ix *IgnoreIndex) Covers(pos token.Pos, analyzer string) bool {
	p := ix.fset.Position(pos)
	for _, dir := range ix.byFile[p.Filename] {
		if dir.matches(analyzer, p.Line) {
			return true
		}
	}
	return false
}

func (d *ignoreDirective) matches(analyzer string, line int) bool {
	if line != d.line && line != d.line+1 {
		return false
	}
	for _, a := range d.analyzers {
		if a == analyzer || a == "*" {
			return true
		}
	}
	return false
}

// Audit applies the files' lint:ignore directives to diags: matching
// diagnostics are marked Suppressed (not removed), every malformed
// directive is appended as a "lint" finding, and — when the unusedignore
// analyzer is among ran, the analyzers that executed — every directive
// that suppressed nothing is appended as an "unusedignore" finding. A
// directive is only judged unused when every analyzer it names ran (or it
// is the wildcard), since a directive for an analyzer outside the run may
// be doing its job invisibly. In a partial run such a directive yields an
// informational note ("audit skipped: ...") rather than nothing, so
// sharded runs cannot silently drop the audit; in a full run (full: the
// whole suite ran) an analyzer that did not run does not exist, and the
// directive naming it is a finding, used or not. consumed lists
// directives analyzers honored mid-analysis (Pass.MarkIgnoreUsed) — a
// taint kill produces no diagnostic to suppress, yet its directive is
// live, not stale.
func Audit(fset *token.FileSet, files []*ast.File, diags []Diagnostic, ran []string, full bool, consumed []ConsumedIgnore) []Diagnostic {
	ignores, malformed := collectIgnores(fset, files)
	for _, c := range consumed {
		pos := fset.Position(c.Pos)
		for _, dir := range ignores[pos.Filename] {
			if dir.matches(c.Analyzer, pos.Line) {
				dir.used = true
			}
		}
	}
	out := make([]Diagnostic, 0, len(diags)+len(malformed))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		for _, dir := range ignores[pos.Filename] {
			if dir.matches(d.Analyzer, pos.Line) {
				d.Suppressed = true
				dir.used = true
				break
			}
		}
		out = append(out, d)
	}
	out = append(out, malformed...)
	ranSet := map[string]bool{"*": true}
	for _, name := range ran {
		ranSet[name] = true
	}
	if !ranSet["unusedignore"] {
		return out
	}
	for _, dirs := range ignores {
		for _, dir := range dirs {
			var missing []string
			for _, a := range dir.analyzers {
				if !ranSet[a] {
					missing = append(missing, a)
				}
			}
			switch {
			case full && len(missing) > 0:
				out = append(out, Diagnostic{
					Pos: dir.pos,
					Message: "//lint:ignore names " + strings.Join(missing, ",") +
						", which is no analyzer of the suite; name the check the directive overrides",
					Analyzer: "unusedignore",
				})
			case dir.used:
				// Live: it suppressed or killed something.
			case len(missing) > 0:
				// A partial run (an analysistest suite of a few
				// analyzers) cannot judge this directive; say so
				// instead of silently skipping the audit.
				out = append(out, Diagnostic{
					Pos: dir.pos,
					Message: "audit skipped: analyzers " + strings.Join(missing, ",") +
						" did not run — this //lint:ignore cannot be judged stale or live in this shard",
					Analyzer: "unusedignore",
					Note:     true,
				})
			default:
				out = append(out, Diagnostic{
					Pos: dir.pos,
					Message: "//lint:ignore " + strings.Join(dir.analyzers, ",") +
						" suppresses no diagnostic; remove the stale directive",
					Analyzer: "unusedignore",
				})
			}
		}
	}
	return out
}
