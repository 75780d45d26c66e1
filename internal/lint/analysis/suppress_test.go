package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const suppressSrc = `package p

func a() {
	//lint:ignore check1 audited: reason recorded here
	use()       // line 5: suppressed for check1 only
	use()       // line 6: out of the directive's reach
}

func b() {
	use() //lint:ignore check1,check2 trailing same-line form
}

//lint:ignore check1
func c() { use() }

func use() {}
`

const suppressEdgeSrc = `package p

func a() {
	//	lint:ignore check1 tab-indented directive body still parses
	use()       // line 5: suppressed
	//   lint:ignore check1 run-of-spaces form also parses
	use()       // line 7: suppressed
}

func b() {
	//lint:ignore check1 separated from the code by a blank line

	use() // line 13: NOT suppressed (non-adjacent)
}

func use() {}
`

// audited runs the audit without the unused-directive check and returns
// the diagnostics it leaves unsuppressed, malformed-directive reports
// included.
func audited(fset *token.FileSet, f *ast.File, diags []Diagnostic) []Diagnostic {
	return Unsuppressed(Audit(fset, []*ast.File{f}, diags, nil, false, nil))
}

func TestApplySuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	file := fset.File(f.Pos())
	at := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: file.LineStart(line), Message: "finding", Analyzer: analyzer}
	}

	got := audited(fset, f, []Diagnostic{
		at(5, "check1"),  // next-line suppression
		at(5, "check2"),  // same line, different analyzer: kept
		at(6, "check1"),  // beyond the one-line reach: kept
		at(10, "check1"), // trailing same-line, first of the list
		at(10, "check2"), // trailing same-line, second of the list
	})

	var kept, malformed []Diagnostic
	for _, d := range got {
		if d.Analyzer == "lint" {
			malformed = append(malformed, d)
		} else {
			kept = append(kept, d)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	for i, want := range []struct {
		line     int
		analyzer string
	}{{5, "check2"}, {6, "check1"}} {
		pos := fset.Position(kept[i].Pos)
		if pos.Line != want.line || kept[i].Analyzer != want.analyzer {
			t.Errorf("kept[%d] = %s at line %d, want %s at line %d",
				i, kept[i].Analyzer, pos.Line, want.analyzer, want.line)
		}
	}
	// The reason-less directive above func c must surface as its own
	// "lint" diagnostic so justifications can never silently vanish.
	if len(malformed) != 1 {
		t.Fatalf("malformed directives reported %d times, want 1: %+v", len(malformed), malformed)
	}
	if !strings.Contains(malformed[0].Message, "lint:ignore") {
		t.Errorf("malformed message = %q", malformed[0].Message)
	}
}

// TestSuppressionWhitespaceAndAdjacency pins two directive-matching rules:
// leading tabs or runs of spaces between "//" and "lint:ignore" must not
// defeat the directive, and a directive separated from the code by a blank
// line must not suppress it.
func TestSuppressionWhitespaceAndAdjacency(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "edge.go", suppressEdgeSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	file := fset.File(f.Pos())
	at := func(line int) Diagnostic {
		return Diagnostic{Pos: file.LineStart(line), Message: "finding", Analyzer: "check1"}
	}
	got := audited(fset, f, []Diagnostic{
		at(5),  // under a tab-indented directive: suppressed
		at(7),  // under a space-indented directive: suppressed
		at(13), // blank line between directive and code: kept
	})
	if len(got) != 1 {
		t.Fatalf("kept %d diagnostics, want 1 (the non-adjacent line): %+v", len(got), got)
	}
	if pos := fset.Position(got[0].Pos); pos.Line != 13 {
		t.Errorf("kept diagnostic at line %d, want 13", pos.Line)
	}
}

// TestAuditUnusedDirectives covers the unusedignore audit: a directive
// that suppresses nothing is reported, one that matched is not, and a
// directive naming an analyzer outside the run is left unjudged.
func TestAuditUnusedDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	file := fset.File(f.Pos())
	// Only a check1 finding on line 5: the directive on line 4 is used,
	// the check1,check2 directive on line 10 and the malformed one stay
	// unused; check2 did not run, so the line-10 directive is unjudged —
	// which must now surface as an explicit audit-skipped note, not
	// silence, and never as a gating unusedignore finding.
	got := Audit(fset, []*ast.File{f}, []Diagnostic{
		{Pos: file.LineStart(5), Message: "finding", Analyzer: "check1"},
	}, []string{"check1"}, true, nil)
	var unused, notes []Diagnostic
	for _, d := range got {
		if d.Analyzer != "unusedignore" {
			continue
		}
		if d.Note {
			notes = append(notes, d)
		} else {
			unused = append(unused, d)
		}
	}
	if len(unused) != 0 {
		t.Fatalf("unused directives with partial run = %d, want 0 (check2 did not run): %+v", len(unused), unused)
	}
	if len(notes) != 1 {
		t.Fatalf("audit-skipped notes with partial run = %d, want 1: %+v", len(notes), notes)
	}
	if !strings.Contains(notes[0].Message, "audit skipped: analyzers check2 did not run") {
		t.Errorf("note message = %q, want the missing analyzer named", notes[0].Message)
	}
	if pos := fset.Position(notes[0].Pos); pos.Line != 10 {
		t.Errorf("note reported at line %d, want 10 (the unjudgeable directive)", pos.Line)
	}
	if len(Unsuppressed(notes)) != 0 {
		t.Errorf("notes must not gate the build, but Unsuppressed kept %d", len(Unsuppressed(notes)))
	}
	// With both analyzers in the run, the line-10 directive is judgeable
	// and unused.
	got = Audit(fset, []*ast.File{f}, []Diagnostic{
		{Pos: file.LineStart(5), Message: "finding", Analyzer: "check1"},
	}, []string{"check1", "check2"}, true, nil)
	unused = nil
	for _, d := range got {
		if d.Analyzer == "unusedignore" {
			unused = append(unused, d)
		}
	}
	if len(unused) != 1 {
		t.Fatalf("unused directives = %d, want 1: %+v", len(unused), unused)
	}
	if pos := fset.Position(unused[0].Pos); pos.Line != 10 {
		t.Errorf("unused directive reported at line %d, want 10", pos.Line)
	}
	if !strings.Contains(unused[0].Message, "suppresses no diagnostic") {
		t.Errorf("unused message = %q", unused[0].Message)
	}
	// The suppressed finding must survive in the stream, marked.
	var suppressed int
	for _, d := range got {
		if d.Suppressed {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed-but-kept findings = %d, want 1", suppressed)
	}
}

// TestAuditConsumedIgnores pins the mid-analysis consumption path: a
// directive that suppressed no diagnostic but was honored by an engine
// (Pass.MarkIgnoreUsed — e.g. a taint kill) counts as used, while the
// same directive with no consumption record is flagged stale. The
// consumption position follows the diagnostic rule: the code's line, with
// the directive on that line or the one above.
func TestAuditConsumedIgnores(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	file := fset.File(f.Pos())
	// No diagnostics at all; both analyzers ran. Without consumption the
	// line-4 and line-10 directives are stale.
	got := Audit(fset, []*ast.File{f}, nil, []string{"check1", "check2"}, true, nil)
	if n := countUnused(got); n != 2 {
		t.Fatalf("unused with no consumption = %d, want 2: %+v", n, got)
	}
	// Consuming at line 5 (the code under the line-4 directive) for check1
	// marks that directive live; the trailing line-10 one stays stale.
	got = Audit(fset, []*ast.File{f}, nil, []string{"check1", "check2"}, true,
		[]ConsumedIgnore{{Pos: file.LineStart(5), Analyzer: "check1"}})
	if n := countUnused(got); n != 1 {
		t.Fatalf("unused after consumption = %d, want 1: %+v", n, got)
	}
	// A consumption for an analyzer the directive does not name changes
	// nothing.
	got = Audit(fset, []*ast.File{f}, nil, []string{"check1", "check2"}, true,
		[]ConsumedIgnore{{Pos: file.LineStart(5), Analyzer: "check2"}})
	if n := countUnused(got); n != 2 {
		t.Fatalf("unused after mismatched consumption = %d, want 2: %+v", n, got)
	}
}

func countUnused(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Analyzer == "unusedignore" && !d.Note {
			n++
		}
	}
	return n
}

// TestIgnoreIndex pins the engine-facing query: Covers mirrors diagnostic
// suppression reach (directive line and the line below, same file, named
// analyzer or wildcard).
func TestIgnoreIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	file := fset.File(f.Pos())
	ix := NewIgnoreIndex(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{5, "check1", true},  // line under the directive
		{4, "check1", true},  // the directive's own line
		{6, "check1", false}, // out of reach
		{5, "check2", false}, // analyzer not named
		{10, "check2", true}, // trailing same-line list form
	}
	for _, c := range cases {
		if got := ix.Covers(file.LineStart(c.line), c.analyzer); got != c.want {
			t.Errorf("Covers(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}
