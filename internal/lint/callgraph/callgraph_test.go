package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const src = `package p

type ringer interface{ Ring() int }

type bell struct{}

func (bell) Ring() int { return 1 }

type gong struct{}

func (*gong) Ring() int { return 2 }

type silent struct{}

func helper() int { return 0 }

func other() int { return 1 }

func calls() {
	helper()            // static
	f := helper
	f()                 // funcvalue
	g := helper
	g = other
	g()                 // poisoned: rebound
	h := helper
	ptr := &h
	_ = ptr
	h()                 // poisoned: address taken
	var r ringer = bell{}
	r.Ring()            // interface
	b := bell{}
	b.Ring()            // static method
	var fld struct{ fn func() }
	fld.fn()            // dynamic field: unknown
	_ = int(0)          // conversion, not a call target
	println("builtin")
}
`

func load(t *testing.T, source string) (*types.Package, *types.Info, []*ast.File, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", source, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, info, []*ast.File{f}, fset
}

// TestResolution walks the calls() function and checks each call site's
// resolution kind and callees.
func TestResolution(t *testing.T) {
	pkg, info, files, _ := load(t, src)
	g := Build(pkg, info, files)

	var node *Node
	for _, n := range g.Nodes {
		if n.Func.Name() == "calls" {
			node = n
		}
	}
	if node == nil {
		t.Fatal("no node for calls()")
	}

	type want struct {
		kind    Kind
		callees []string
	}
	wants := []want{
		{KindStatic, []string{"p.helper"}},
		{KindFuncValue, []string{"p.helper"}},
		{KindUnknown, nil},                                          // g rebound
		{KindUnknown, nil},                                          // h address-taken
		{KindInterface, []string{"p.(bell).Ring", "p.(gong).Ring"}}, // r.Ring()
		{KindStatic, []string{"p.(bell).Ring"}},
		{KindUnknown, nil}, // fld.fn()
		{KindUnknown, nil}, // println builtin
	}
	if len(node.Calls) != len(wants) {
		var got []string
		for _, c := range node.Calls {
			got = append(got, c.Kind.String())
		}
		t.Fatalf("calls() has %d call sites (%s), want %d", len(node.Calls), strings.Join(got, ","), len(wants))
	}
	for i, w := range wants {
		c := node.Calls[i]
		if c.Kind != w.kind {
			t.Errorf("call %d: kind = %s, want %s", i, c.Kind, w.kind)
		}
		var got []string
		for _, fn := range c.Callees {
			got = append(got, funcID(fn))
		}
		if strings.Join(got, ",") != strings.Join(w.callees, ",") {
			t.Errorf("call %d: callees = %v, want %v", i, got, w.callees)
		}
	}
}

// TestGraphOrder pins that nodes appear in source order and NodeOf finds
// them.
func TestGraphOrder(t *testing.T) {
	pkg, info, files, _ := load(t, src)
	g := Build(pkg, info, files)
	var names []string
	for _, n := range g.Nodes {
		names = append(names, n.Func.Name())
		if g.NodeOf(n.Func) != n {
			t.Errorf("NodeOf(%s) does not round-trip", n.Func.Name())
		}
	}
	want := "Ring,Ring,helper,other,calls"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("node order = %s, want %s", got, want)
	}
}

// TestDisplayName covers plain functions and both receiver forms.
func TestDisplayName(t *testing.T) {
	pkg, info, files, _ := load(t, src)
	g := Build(pkg, info, files)
	var got []string
	for _, n := range g.Nodes {
		got = append(got, DisplayName(n.Func))
	}
	want := "(bell).Ring,(*gong).Ring,p.helper,p.other,p.calls"
	if s := strings.Join(got, ","); s != want {
		t.Errorf("display names = %s, want %s", s, want)
	}
}
