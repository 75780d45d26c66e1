package cfg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"sympack/internal/lint/cfg"
)

// build parses one function body and returns its graph.
func build(t *testing.T, body string) (*cfg.Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return cfg.New(fd.Body), fset
}

// reach reports whether to is reachable from from.
func reach(from, to *cfg.Block) bool {
	seen := map[*cfg.Block]bool{}
	var walk func(b *cfg.Block) bool
	walk = func(b *cfg.Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestStraightLine(t *testing.T) {
	g, _ := build(t, "x := 1\n_ = x\nreturn")
	if !reach(g.Entry, g.Exit) {
		t.Fatal("exit unreachable in straight-line function")
	}
	if len(g.Entry.Nodes) != 3 { // assign, assign, return
		t.Errorf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
}

func TestIfJoin(t *testing.T) {
	g, _ := build(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	// The join block must have two predecessors (then and else arms).
	var join *cfg.Block
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 && b != g.Exit {
			join = b
		}
	}
	if join == nil {
		t.Fatalf("no two-predecessor join block:\n%s", g.Dump(nil))
	}
}

func TestIfWithoutElse(t *testing.T) {
	g, _ := build(t, "x := 1\nif x > 0 {\n\tx = 2\n}\n_ = x")
	// Condition block must reach the join both through and around the
	// then-arm: the join has 2 preds.
	found := false
	for _, b := range g.Blocks {
		if b != g.Exit && len(b.Preds) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing then/fallthrough join:\n%s", g.Dump(nil))
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g, _ := build(t, "for i := 0; i < 4; i++ {\n\t_ = i\n}")
	// Some block must have a successor with a smaller index (the back
	// edge to the loop header).
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("no back edge in for loop:\n%s", g.Dump(nil))
	}
	if !reach(g.Entry, g.Exit) {
		t.Fatal("loop exit unreachable")
	}
}

func TestInfiniteLoopExitUnreachable(t *testing.T) {
	g, _ := build(t, "for {\n\t_ = 1\n}")
	if reach(g.Entry, g.Exit) {
		t.Fatalf("exit reachable through condition-less for:\n%s", g.Dump(nil))
	}
}

func TestBreakEscapesInfiniteLoop(t *testing.T) {
	g, _ := build(t, "for {\n\tbreak\n}")
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("break does not reach exit:\n%s", g.Dump(nil))
	}
}

func TestContinueSkipsRest(t *testing.T) {
	// After continue, the increment statement is dead within its block
	// path; the graph must still terminate and reach exit.
	g, _ := build(t, "x := 0\nfor i := 0; i < 4; i++ {\n\tif i == 2 {\n\t\tcontinue\n\t}\n\tx++\n}\n_ = x")
	if !reach(g.Entry, g.Exit) {
		t.Fatal("exit unreachable with continue")
	}
}

func TestReturnTerminatesPath(t *testing.T) {
	g, _ := build(t, "x := 1\nif x > 0 {\n\treturn\n}\n_ = x")
	// The then-arm must edge to Exit, not to the join.
	var ret *cfg.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				ret = b
			}
		}
	}
	if ret == nil {
		t.Fatal("return block not found")
	}
	if len(ret.Succs) != 1 || ret.Succs[0] != g.Exit {
		t.Fatalf("return block succs = %v, want [exit]", ret.Succs)
	}
}

func TestPanicEdgesToExit(t *testing.T) {
	g, _ := build(t, "x := 1\nif x > 0 {\n\tpanic(\"boom\")\n}\n_ = x")
	var pan *cfg.Block
	for _, b := range g.Blocks {
		if b.PanicExit {
			pan = b
		}
	}
	if pan == nil {
		t.Fatalf("no PanicExit block:\n%s", g.Dump(nil))
	}
	if len(pan.Succs) != 1 || pan.Succs[0] != g.Exit {
		t.Fatal("panic block must edge to Exit")
	}
}

func TestSwitchCasesAndDefault(t *testing.T) {
	g, _ := build(t, "x := 1\nswitch x {\ncase 1:\n\tx = 2\ncase 2:\n\tx = 3\ndefault:\n\tx = 4\n}\n_ = x")
	// With a default, the header must NOT edge straight to the exit
	// join: three case bodies only.
	var header *cfg.Block
	for _, b := range g.Blocks {
		if len(b.Succs) == 3 {
			header = b
		}
	}
	if header == nil {
		t.Fatalf("no 3-successor switch header:\n%s", g.Dump(nil))
	}
}

func TestSwitchNoDefaultFallsThrough(t *testing.T) {
	g, _ := build(t, "x := 1\nswitch x {\ncase 1:\n\tx = 2\n}\n_ = x")
	// Without a default the header edges to both the case and the exit.
	ok := false
	for _, b := range g.Blocks {
		if len(b.Succs) == 2 && b != g.Exit {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("header missing no-match edge:\n%s", g.Dump(nil))
	}
}

func TestFallthroughChains(t *testing.T) {
	g, _ := build(t, "x := 1\nswitch x {\ncase 1:\n\tx = 2\n\tfallthrough\ncase 2:\n\tx = 3\n}\n_ = x")
	// The first case body must edge into the second case body (which
	// then has two preds: header and the fallthrough).
	found := false
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 && b != g.Exit {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					found = true
					_ = as
				}
			}
		}
	}
	if !found {
		t.Fatalf("fallthrough target lacks dual preds:\n%s", g.Dump(nil))
	}
}

func TestSelectBranches(t *testing.T) {
	g, _ := build(t, "var a, b chan int\nselect {\ncase <-a:\n\t_ = 1\ncase <-b:\n\t_ = 2\n}")
	var header *cfg.Block
	for _, blk := range g.Blocks {
		if len(blk.Succs) == 2 && blk != g.Exit {
			header = blk
		}
	}
	if header == nil {
		t.Fatalf("select header with 2 case successors not found:\n%s", g.Dump(nil))
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g, _ := build(t, "select {}\n_ = 1")
	if reach(g.Entry, g.Exit) {
		t.Fatalf("exit reachable past select{}:\n%s", g.Dump(nil))
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g, _ := build(t, "x := 0\nloop:\n\tx++\nif x < 3 {\n\tgoto loop\n}\ngoto done\ndone:\n\treturn")
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("goto graph does not reach exit:\n%s", g.Dump(nil))
	}
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("backward goto produced no back edge:\n%s", g.Dump(nil))
	}
}

func TestLabeledBreak(t *testing.T) {
	g, _ := build(t, "outer:\nfor {\n\tfor {\n\t\tbreak outer\n\t}\n}\n_ = 1")
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("labeled break does not escape nested loops:\n%s", g.Dump(nil))
	}
}

// TestLabeledBreakOutOfNestedSelect pins the interaction of the label
// machinery with select: a `break outer` two selects deep must escape
// both comm clauses and the enclosing loop in one edge.
func TestLabeledBreakOutOfNestedSelect(t *testing.T) {
	g, _ := build(t, `var a, b chan int
outer:
	for {
		select {
		case <-a:
			break outer
		case <-b:
			select {
			case <-a:
				break outer
			case <-b:
				_ = 1
			}
		}
	}
	_ = 2`)
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("labeled break inside nested selects does not escape the loop:\n%s", g.Dump(nil))
	}
}

// TestLabeledContinueOutOfNestedSelect: `continue outer` from a comm
// clause must edge back to the loop advance, keeping both the back edge
// and the normal loop exit alive.
func TestLabeledContinueOutOfNestedSelect(t *testing.T) {
	g, _ := build(t, `var a, b chan int
outer:
	for i := 0; i < 3; i++ {
		select {
		case <-a:
			continue outer
		case <-b:
			_ = 1
		}
		_ = 2
	}
	_ = 3`)
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("loop with labeled continue never reaches exit:\n%s", g.Dump(nil))
	}
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("labeled continue produced no back edge:\n%s", g.Dump(nil))
	}
}

// TestGotoIntoLoopBody: the builder must stay robust on a goto targeting
// a label inside a loop body (the parser accepts it; only the type
// checker rejects the scope jump), producing a connected graph rather
// than panicking — analyzers can run on ill-scoped code mid-edit.
func TestGotoIntoLoopBody(t *testing.T) {
	g, _ := build(t, `i := 0
	goto inside
	for i < 3 {
	inside:
		i++
	}
	_ = i`)
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("goto into loop body disconnects exit:\n%s", g.Dump(nil))
	}
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("loop entered via goto lost its back edge:\n%s", g.Dump(nil))
	}
}

// TestSelectWithDefault: a default arm makes select non-blocking — the
// header needs a successor per clause and the join must reach exit.
func TestSelectWithDefault(t *testing.T) {
	g, _ := build(t, "var a chan int\nselect {\ncase <-a:\n\t_ = 1\ndefault:\n\t_ = 2\n}\n_ = 3")
	if !reach(g.Entry, g.Exit) {
		t.Fatalf("select with default does not reach exit:\n%s", g.Dump(nil))
	}
	var header *cfg.Block
	for _, blk := range g.Blocks {
		if len(blk.Succs) == 2 && blk != g.Exit && reach(blk, g.Exit) {
			header = blk
			break
		}
	}
	if header == nil {
		t.Fatalf("select header with comm+default successors not found:\n%s", g.Dump(nil))
	}
}

func TestRangeLoop(t *testing.T) {
	g, _ := build(t, "xs := []int{1, 2}\nfor _, x := range xs {\n\t_ = x\n}")
	if !reach(g.Entry, g.Exit) {
		t.Fatal("range exit unreachable")
	}
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatal("range loop has no back edge")
	}
}

func TestReachableExcludesDeadBlocks(t *testing.T) {
	g, _ := build(t, "return\n_ = 1")
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				t.Errorf("dead assignment reachable: %v", as)
			}
		}
	}
}
