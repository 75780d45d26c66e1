package analysis

// Facts: per-object and per-package state that one analyzer pass exports
// for passes over downstream packages to import, mirroring the Fact
// mechanism of golang.org/x/tools/go/analysis. An analyzer declares the
// concrete fact types it uses in Analyzer.FactTypes; at run time the
// driver installs the Export/Import functions on each Pass, backed by a
// FactStore shared across the whole run.
//
// The drivers (lint.RunModule, analysistest) analyze packages in
// dependency order against one in-process store, so facts flow by object
// identity with no serialization.

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is analyzer-private state attached to a package or to one of its
// objects. Concrete fact types must be pointers to structs and carry the
// AFact marker method.
type Fact interface {
	AFact() // dummy marker method
}

// A FactStore accumulates facts across the packages of one lint run. It
// is not safe for concurrent use; the drivers run single-threaded.
type FactStore struct {
	obj map[objFactKey]Fact
	pkg map[pkgFactKey]Fact
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{obj: map[objFactKey]Fact{}, pkg: map[pkgFactKey]Fact{}}
}

// Bind installs the fact accessors on a pass. The pass's analyzer must
// have declared its fact types; exporting an undeclared type panics, like
// upstream.
func (s *FactStore) Bind(pass *Pass) {
	declared := func(f Fact) bool {
		t := reflect.TypeOf(f)
		for _, ft := range pass.Analyzer.FactTypes {
			if reflect.TypeOf(ft) == t {
				return true
			}
		}
		return false
	}
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		if !declared(fact) {
			panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", pass.Analyzer.Name, fact))
		}
		if obj == nil {
			panic(pass.Analyzer.Name + ": ExportObjectFact(nil, ...)")
		}
		s.obj[objFactKey{obj, reflect.TypeOf(fact)}] = fact
	}
	pass.ImportObjectFact = func(obj types.Object, fact Fact) bool {
		if obj == nil {
			return false
		}
		stored, ok := s.obj[objFactKey{obj, reflect.TypeOf(fact)}]
		if !ok {
			return false
		}
		copyFact(fact, stored)
		return true
	}
	pass.ExportPackageFact = func(fact Fact) {
		if !declared(fact) {
			panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", pass.Analyzer.Name, fact))
		}
		s.pkg[pkgFactKey{pass.Pkg, reflect.TypeOf(fact)}] = fact
	}
	pass.ImportPackageFact = func(pkg *types.Package, fact Fact) bool {
		if pkg == nil {
			return false
		}
		stored, ok := s.pkg[pkgFactKey{pkg, reflect.TypeOf(fact)}]
		if !ok {
			return false
		}
		copyFact(fact, stored)
		return true
	}
}

// copyFact copies the stored fact's value into the caller's pointer.
func copyFact(dst, src Fact) {
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("fact types must be pointers: %T, %T", dst, src))
	}
	dv.Elem().Set(sv.Elem())
}
