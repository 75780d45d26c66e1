package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// markFact is a minimal fact for the store tests.
type markFact struct{ N int }

func (*markFact) AFact() {}

var factTestAnalyzer = &Analyzer{
	Name:      "facttest",
	Doc:       "test analyzer",
	Run:       func(*Pass) (interface{}, error) { return nil, nil },
	FactTypes: []Fact{(*markFact)(nil)},
}

func checkFactPkg(t *testing.T) *types.Package {
	t.Helper()
	const src = "package a\n\nfunc F() {}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("a", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func bind(t *testing.T, s *FactStore, pkg *types.Package) *Pass {
	t.Helper()
	pass := &Pass{Analyzer: factTestAnalyzer, Pkg: pkg}
	s.Bind(pass)
	return pass
}

// TestFactInProcess covers the shared store the drivers use: object
// identity carries the fact.
func TestFactInProcess(t *testing.T) {
	pkg := checkFactPkg(t)
	store := NewFactStore()
	p := bind(t, store, pkg)
	obj := pkg.Scope().Lookup("F")
	var got markFact
	if p.ImportObjectFact(obj, &got) {
		t.Error("ImportObjectFact before export; want miss")
	}
	p.ExportObjectFact(obj, &markFact{N: 7})
	if !p.ImportObjectFact(obj, &got) || got.N != 7 {
		t.Errorf("in-process fact: got %+v, want {N:7}", got)
	}
}
