// Package cfg builds intraprocedural control-flow graphs over ast.Stmt,
// mirroring the shape (and deliberately a subset of the semantics) of
// golang.org/x/tools/go/cfg, which the stdlib-only build cannot vendor
// (DESIGN.md §2). The suite's flow-sensitive analyzers — mutexguard's
// lockset meet, the taint engine's per-path state, ctxflow's
// context-derivation tracking, goroutineleak's path reachability — all
// reason over these graphs instead of walking statements in source order,
// which is what makes their verdicts sound at path merges.
//
// A Graph has one synthetic Entry and one synthetic Exit block. Basic
// blocks carry the statements and branch conditions they execute, in
// execution order; Nodes may therefore hold both ast.Stmt and ast.Expr
// values, exactly like upstream. Edges cover structured control flow
// (if/else, for, range, switch, type switch, select), unstructured
// control flow (break/continue/goto, labeled or not, and fallthrough),
// returns, and calls of the panic builtin (an edge to Exit with the
// block marked PanicExit, so analyzers can excuse error paths). A defer
// statement is a straight-line node where it appears.
//
// The builder is purely syntactic: it needs no *types.Info, so graphs can
// be built for any parsed function (including testdata that does not
// type-check standalone). Function literals are NOT expanded into the
// enclosing graph — a literal's body is its own function with its own
// graph, matching how the analyzers treat closures as concurrency
// boundaries.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block // in creation order; Blocks[0] == Entry
	Entry  *Block
	Exit   *Block
}

// A Block is a basic block: a maximal sequence of nodes with one entry
// point and one exit point.
type Block struct {
	Index int        // position in Graph.Blocks
	Nodes []ast.Node // statements and conditions, in execution order
	Succs []*Block
	Preds []*Block

	// PanicExit marks a block whose edge to Exit comes from a call of the
	// panic builtin rather than a return: analyzers that reason about
	// "every path to return" may excuse panic paths.
	PanicExit bool

	// comment names the block's role ("entry", "if.then", "for.body", ...)
	// for the debug dump; it has no semantic weight.
	comment string
}

// New builds the graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		graph:  &Graph{},
		labels: map[string]*labelInfo{},
	}
	b.graph.Entry = b.newBlock("entry")
	b.graph.Exit = b.newBlock("exit")
	b.current = b.graph.Entry
	b.stmts(body.List)
	// Fall off the end of the body: implicit return.
	b.jump(b.graph.Exit)
	return b.graph
}

// labelInfo resolves gotos and labeled break/continue against the blocks a
// labeled statement introduces.
type labelInfo struct {
	target      *Block // the labeled statement itself (goto target)
	breakTarget *Block // set while the labeled loop/switch/select is open
	contTarget  *Block // set while the labeled loop is open
}

type builder struct {
	graph   *Graph
	current *Block
	labels  map[string]*labelInfo

	// Innermost enclosing targets for unlabeled break/continue.
	breakStack []*Block
	contStack  []*Block

	// labeled carries the pending label name between a LabeledStmt and
	// the loop/switch it labels, so labeled break/continue resolve.
	labeled string
}

func (b *builder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.graph.Blocks), comment: comment}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// edge links from → to.
func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target and leaves the
// builder in a fresh, unreachable block (statements after an
// unconditional jump are dead until a label or join reuses them).
func (b *builder) jump(target *Block) {
	b.edge(b.current, target)
	b.current = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.current.Nodes = append(b.current.Nodes, n)
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.graph.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.current.PanicExit = true
			b.jump(b.graph.Exit)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.current
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.edge(condBlock, then)
		b.current = then
		b.stmts(s.Body.List)
		b.edge(b.current, join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(condBlock, els)
			b.current = els
			b.stmt(s.Else)
			b.edge(b.current, join)
		} else {
			b.edge(condBlock, join)
		}
		b.current = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock("for.header")
		b.edge(b.current, header)
		if s.Cond != nil {
			header.Nodes = append(header.Nodes, s.Cond)
		}
		post := header
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, header)
		}
		exit := b.newBlock("for.exit")
		if s.Cond != nil {
			b.edge(header, exit)
		}
		body := b.newBlock("for.body")
		b.edge(header, body)
		b.pushLoop(s, exit, post)
		b.current = body
		b.stmts(s.Body.List)
		b.popLoop()
		b.edge(b.current, post)
		b.current = exit

	case *ast.RangeStmt:
		b.add(s.X)
		header := b.newBlock("range.header")
		b.edge(b.current, header)
		// The per-iteration key/value assignment is part of the header.
		header.Nodes = append(header.Nodes, s)
		exit := b.newBlock("range.exit")
		b.edge(header, exit)
		body := b.newBlock("range.body")
		b.edge(header, body)
		b.pushLoop(s, exit, header)
		b.current = body
		b.stmts(s.Body.List)
		b.popLoop()
		b.edge(b.current, header)
		b.current = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.cases(s, s.Body.List, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.cases(s, s.Body.List, nil)

	case *ast.SelectStmt:
		header := b.current
		exit := b.newBlock("select.exit")
		b.pushBreak(s, exit)
		hasCase := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			hasCase = true
			body := b.newBlock("select.case")
			b.edge(header, body)
			b.current = body
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmts(cc.Body)
			b.edge(b.current, exit)
		}
		b.popBreak()
		if !hasCase {
			// select{} blocks forever: no successor at all.
			b.current = b.newBlock("unreachable")
			return
		}
		b.current = exit

	case *ast.LabeledStmt:
		info := b.label(s.Label.Name)
		b.edge(b.current, info.target)
		b.current = info.target
		b.labels[s.Label.Name] = info
		b.labeled = s.Label.Name
		b.stmt(s.Stmt)
		b.labeled = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s.Label, true); t != nil {
				b.add(s)
				b.jump(t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s.Label, false); t != nil {
				b.add(s)
				b.jump(t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.add(s)
				b.jump(b.label(s.Label.Name).target)
			}
		case token.FALLTHROUGH:
			// Handled by cases(): the case body's fallthrough edge is the
			// edge to the next body block; record the statement only.
			b.add(s)
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, defer, empty:
		// straight-line nodes.
		if s != nil {
			if _, ok := s.(*ast.EmptyStmt); ok {
				return
			}
			b.add(s)
		}
	}
}

// cases builds the shared switch/type-switch shape: every case body is a
// successor of the header block, fallthrough chains body i to body i+1,
// and a missing default adds a header→exit edge.
func (b *builder) cases(sw ast.Stmt, clauses []ast.Stmt, caseExprs func(*ast.CaseClause, *Block)) {
	header := b.current
	exit := b.newBlock("switch.exit")
	b.pushBreak(sw, exit)
	var bodies []*Block
	var ccs []*ast.CaseClause
	hasDefault := false
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		ccs = append(ccs, cc)
		blk := b.newBlock("switch.case")
		b.edge(header, blk)
		if cc.List == nil {
			hasDefault = true
		}
		if caseExprs != nil {
			caseExprs(cc, blk)
		}
		bodies = append(bodies, blk)
	}
	for i, blk := range bodies {
		b.current = blk
		b.stmts(ccs[i].Body)
		if fallsThrough(ccs[i].Body) && i+1 < len(bodies) {
			b.edge(b.current, bodies[i+1])
			b.current = b.newBlock("unreachable")
		} else {
			b.edge(b.current, exit)
		}
	}
	b.popBreak()
	if !hasDefault {
		b.edge(header, exit)
	}
	b.current = exit
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// label returns (creating on first reference) the info for a label, so
// forward gotos resolve to the same block the LabeledStmt later claims.
func (b *builder) label(name string) *labelInfo {
	if info, ok := b.labels[name]; ok {
		return info
	}
	info := &labelInfo{target: b.newBlock("label." + name)}
	b.labels[name] = info
	return info
}

// pushLoop opens a loop's break/continue scope; if the loop carries a
// pending label, the label's targets are bound too.
func (b *builder) pushLoop(s ast.Stmt, brk, cont *Block) {
	b.breakStack = append(b.breakStack, brk)
	b.contStack = append(b.contStack, cont)
	if b.labeled != "" {
		info := b.labels[b.labeled]
		info.breakTarget = brk
		info.contTarget = cont
		b.labeled = "" // consumed: inner loops must not rebind this label
	}
}

func (b *builder) popLoop() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.contStack = b.contStack[:len(b.contStack)-1]
}

// pushBreak opens a switch/select break scope (no continue target).
func (b *builder) pushBreak(s ast.Stmt, brk *Block) {
	b.breakStack = append(b.breakStack, brk)
	if b.labeled != "" {
		b.labels[b.labeled].breakTarget = brk
		b.labeled = ""
	}
}

func (b *builder) popBreak() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
}

// branchTarget resolves break (isBreak) or continue to its target block,
// or nil when the program is malformed (dangling break in a function
// body fragment — tolerated, since the type checker owns that error).
func (b *builder) branchTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		info, ok := b.labels[label.Name]
		if !ok {
			return nil
		}
		if isBreak {
			return info.breakTarget
		}
		return info.contTarget
	}
	if isBreak {
		if len(b.breakStack) == 0 {
			return nil
		}
		return b.breakStack[len(b.breakStack)-1]
	}
	if len(b.contStack) == 0 {
		return nil
	}
	return b.contStack[len(b.contStack)-1]
}

// isPanicCall reports a direct call of the panic builtin. Purely
// syntactic: a local function named panic would shadow the builtin, which
// no code in this tree (or sane code anywhere) does.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// Reachable returns the blocks reachable from Entry, in a deterministic
// (block-index) order. Dead blocks the builder created after jumps are
// excluded, which is what dataflow iteration wants.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var stack []*Block
	stack = append(stack, g.Entry)
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for _, blk := range g.Blocks {
		if seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// Dump renders the graph for tests and debugging: one line per block with
// its role, node count and successor indices.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s) n=%d ->", blk.Index, blk.comment, len(blk.Nodes))
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
