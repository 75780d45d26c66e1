// Package analysis is a self-contained reimplementation of the public API
// surface of golang.org/x/tools/go/analysis that the sympacklint suite
// needs. The build environment vendors no third-party modules (the repo is
// stdlib-only by policy, see DESIGN.md §2), so rather than depending on
// x/tools this package provides the same Analyzer/Pass/Diagnostic contract
// on top of go/ast and go/types. Analyzers written against it follow the
// upstream conventions — a Run function receiving a type-checked package
// and reporting position-anchored diagnostics — and could be ported to the
// real framework by changing only the import path.
//
// The deliberate subset: no Requires graph (the analyzers are
// independent) and no SSA. Facts — exportable per-object/per-package
// state handed from one pass to the next, which the interprocedural
// analyzers use to carry function summaries across packages — follow the
// upstream contract (see facts.go).
// Suppression via "//lint:ignore" comments is handled by the runner, not
// by individual analyzers (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. Name is the identifier used in
// diagnostics and in //lint:ignore directives; Doc is the human
// description printed by `sympacklint -h`.
type Analyzer struct {
	Name string
	Doc  string

	// Run applies the analyzer to a single type-checked package and
	// reports findings through pass.Report. The interface{} result and
	// error mirror the upstream signature; the suite's analyzers return
	// (nil, nil) and communicate only through diagnostics.
	Run func(pass *Pass) (interface{}, error)

	// FactTypes declares the concrete fact types this analyzer exports
	// or imports (see facts.go). Exporting an undeclared type panics.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic. The runner installs it; analyzers
	// should prefer Reportf.
	Report func(Diagnostic)

	// Fact accessors, installed by the runner from its FactStore
	// (FactStore.Bind). Object facts attach to exported objects and
	// travel to passes over importing packages; package facts attach to
	// the package as a whole. Import functions copy the stored value
	// into the argument and report whether a fact was found.
	ExportObjectFact  func(obj types.Object, fact Fact)
	ImportObjectFact  func(obj types.Object, fact Fact) bool
	ExportPackageFact func(fact Fact)
	ImportPackageFact func(pkg *types.Package, fact Fact) bool

	// MarkIgnoreUsed, installed by the runner, records that an
	// //lint:ignore directive covering pos was consumed by the analyzer
	// mid-analysis — e.g. a taint engine killing a flow at the directive's
	// line — rather than by suppressing a reported diagnostic. The audit
	// counts such directives as live, so unusedignore does not flag an
	// escape hatch whose entire effect was to stop a finding from ever
	// being produced.
	MarkIgnoreUsed func(pos token.Pos, analyzer string)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the runner

	// Suppressed marks a finding silenced by an audited //lint:ignore
	// directive. The audit keeps suppressed findings in the stream (the
	// -json report shows them; the exit code ignores them) so a
	// suppression is always visible, never a silent deletion.
	Suppressed bool

	// Note marks an informational diagnostic that never gates the build:
	// the suppression audit emits one when a sharded run leaves it unable
	// to judge a directive ("audit skipped: analyzers X did not run"), so
	// partial CI shards say so out loud instead of silently passing.
	Note bool
}

// Unsuppressed filters a diagnostic stream down to the findings that
// gate the build: suppressed findings and informational notes drop out.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed && !d.Note {
			out = append(out, d)
		}
	}
	return out
}
