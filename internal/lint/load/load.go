// Package load type-checks packages of this module (and of analysistest
// trees) for the sympacklint analyzers, using only the standard library:
// go/build selects files under the active build tags, go/parser parses
// them, and go/types checks them. Imports are resolved through a small
// vendor-free importer: module-local paths are loaded recursively from the
// repository tree, everything else is delegated to the standard library's
// from-source importer (importer.ForCompiler "source"), which compiles
// GOROOT packages on demand. This is the piece x/tools/go/packages would
// normally provide; the repo is stdlib-only by policy (DESIGN.md §2), so
// the loader is ~200 lines of the same idea, sized to this module.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package, ready for analysis.
type Package struct {
	Path  string // import path ("sympack/internal/core")
	Dir   string // directory holding the sources
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves and caches packages. It is not safe for concurrent
// use; the lint driver runs single-threaded.
type Loader struct {
	Fset *token.FileSet

	// local maps an import path to a source directory, or reports
	// !ok to fall through to the standard-library importer.
	local func(path string) (dir string, ok bool)

	std     types.ImporterFrom
	cache   map[string]*Package
	loading map[string]bool
	ctx     build.Context
}

func newLoader(local func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	ctx := build.Default
	l := &Loader{
		Fset:    fset,
		local:   local,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
		ctx:     ctx,
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// NewModuleLoader returns a loader rooted at a Go module directory. The
// module path is read from go.mod; imports below it resolve into the tree.
func NewModuleLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return newLoader(func(path string) (string, bool) {
		if path == modPath {
			return modRoot, true
		}
		if rest, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(modRoot, filepath.FromSlash(rest)), true
		}
		return "", false
	}), nil
}

// NewTreeLoader returns a GOPATH-style loader for analysistest trees: the
// import path "a/b" resolves to <srcRoot>/a/b if that directory exists.
func NewTreeLoader(srcRoot string) *Loader {
	return newLoader(func(path string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	})
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("load: no module line in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p.Types, nil
	}
	if ldir, ok := l.local(path); ok {
		p, err := l.loadDir(path, ldir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadDir loads and type-checks the package in dir under the given import
// path (non-test files only — the invariants the suite guards are runtime
// properties; tests are free to use wall clocks and unordered maps).
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	return l.loadDir(path, dir)
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			// The scanner's error already carries file:line:col; prefix
			// the package so multi-package runs say which unit died.
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor(l.ctx.Compiler, l.ctx.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// ModulePackages walks a module tree and returns the import paths and
// directories of every buildable non-test package, in deterministic
// (sorted) order. Hidden directories, testdata trees, and vendor are
// skipped, matching the meaning of "./..." for go vet.
func ModulePackages(modRoot string) (paths, dirs []string, err error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	err = filepath.WalkDir(modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here; keep walking
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		dirs = append(dirs, p)
		return nil
	})
	return paths, dirs, err
}
