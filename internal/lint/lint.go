// Package lint assembles the sympacklint analyzer suite and runs it over
// type-checked packages. The suite mechanically enforces the solver's
// headline invariants — deterministic schedules and virtualized wall
// clocks, typed-atomic shared counters, never-discarded transfer errors,
// mutex-guarded scheduler state, and live suppressions — that PRs 1–2
// established by hand (see DESIGN.md §10 for the mapping from each
// analyzer to the paper invariant it guards).
//
// Packages are analyzed in dependency order against one shared
// analysis.FactStore, so facts exported by a pass over an imported
// package (e.g. errflow's taint summaries) are visible to passes
// over its importers.
package lint

import (
	"go/token"
	"go/types"
	"slices"
	"sort"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/atomicconsistency"
	"sympack/internal/lint/ctxflow"
	"sympack/internal/lint/errflow"
	"sympack/internal/lint/goroutineleak"
	"sympack/internal/lint/load"
	"sympack/internal/lint/locks"
	"sympack/internal/lint/nondetflow"
	"sympack/internal/lint/unusedignore"
)

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicconsistency.Analyzer,
		ctxflow.Analyzer,
		errflow.Analyzer,
		goroutineleak.Analyzer,
		locks.LockOrder,
		locks.MutexGuard,
		nondetflow.Analyzer,
		unusedignore.Analyzer,
	}
}

// RunPackageFacts applies the analyzers to one package against a
// caller-owned fact store, which both receives this package's exported
// facts and answers imports from previously analyzed dependencies. It
// honors //lint:ignore suppressions and returns diagnostics — suppressed
// ones marked, not removed — in deterministic position order.
func RunPackageFacts(p *load.Package, analyzers []*analysis.Analyzer, store *analysis.FactStore) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	var consumed []analysis.ConsumedIgnore
	ran := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		ran = append(ran, a.Name)
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		}
		store.Bind(pass)
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		pass.MarkIgnoreUsed = func(pos token.Pos, analyzer string) {
			consumed = append(consumed, analysis.ConsumedIgnore{Pos: pos, Analyzer: analyzer})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	diags = analysis.Audit(p.Fset, p.Files, diags, ran, fullSuite(ran), consumed)
	sortDiagnostics(p.Fset, diags)
	return diags, nil
}

// fullSuite reports whether every analyzer of the suite ran: only then
// does a directive naming an analyzer that did not run name no analyzer
// at all.
func fullSuite(ran []string) bool {
	for _, a := range Analyzers() {
		if !slices.Contains(ran, a.Name) {
			return false
		}
	}
	return true
}

// RunModule loads every buildable package under modRoot and applies the
// analyzers to each, in dependency order so facts flow from imported
// packages to their importers. It returns all diagnostics (suppressed
// ones marked) plus the file set for rendering positions.
func RunModule(modRoot string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, *token.FileSet, error) {
	loader, err := load.NewModuleLoader(modRoot)
	if err != nil {
		return nil, nil, err
	}
	paths, dirs, err := load.ModulePackages(modRoot)
	if err != nil {
		return nil, nil, err
	}
	pkgs := make([]*load.Package, 0, len(paths))
	for i, path := range paths {
		p, err := loader.LoadDir(path, dirs[i])
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	store := analysis.NewFactStore()
	var all []analysis.Diagnostic
	for _, p := range dependencyOrder(pkgs) {
		ds, err := RunPackageFacts(p, analyzers, store)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, ds...)
	}
	sortDiagnostics(loader.Fset, all)
	return all, loader.Fset, nil
}

// dependencyOrder sorts packages so every package follows its in-set
// imports (imports cannot cycle, so the DFS terminates). The input is
// already path-sorted, which makes the output deterministic.
func dependencyOrder(pkgs []*load.Package) []*load.Package {
	byTypes := make(map[*types.Package]*load.Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	seen := map[*load.Package]bool{}
	out := make([]*load.Package, 0, len(pkgs))
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

func sortDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
