// Package goroutineleak flags goroutines that can block forever on a
// channel operation with no escape. The engine runs a goroutine per rank
// and per helper worker, and sympackd one per request; each one that parks
// on an unbuffered channel whose other end is conditional leaks a stack and
// an OS-thread slot for the life of the process — the classic slow leak
// that only shows up as RSS creep under sustained load.
//
// The shape detected:
//
//	res := make(chan result)          // unbuffered, function-local
//	go func() { res <- compute() }()  // bare send: no select, no ctx
//	select {
//	case r := <-res:
//	    use(r)
//	case <-ctx.Done():                // this arm abandons the sender
//	    return ctx.Err()
//	}
//
// A goroutine-side send or receive is "bare" when it sits outside any
// select in the goroutine body: nothing can preempt it. For each bare
// operation on an unbuffered function-local channel, the enclosing
// function's control-flow graph (internal/lint/cfg) is checked with a
// backward must-dataflow (internal/lint/dataflow): on every path from
// the go statement to return, a matching consumer — a receive for a
// send; a send or close for a receive — must execute. Select arms are
// separate CFG blocks, so the ctx.Done() arm above is correctly seen as
// a consumer-free path and the launch is reported. Panic paths are
// excused (the process is unwinding).
//
// Conservative outs, never reported: buffered channels (the send
// completes regardless), channels that escape the function (returned,
// stored, aliased, or passed to a callee that leaks them onward —
// someone else may consume), channels the function also touches from
// another function literal (deferred drains), and goroutine-side
// operations wrapped in a select (assumed to have an escape arm).
//
// Passing a channel to a *summarized* callee is no longer an escape.
// Every function's per-parameter channel behavior (send/receive/close/
// escape, chased transitively through the internal/lint/callgraph call
// graph and exported as a Fact for cross-package callers) is summarized,
// so a call to an inert helper keeps the channel a candidate, a call to
// a draining helper counts as the consumer, and a helper that sends on
// the caller's behalf makes the launch `go func() { emit(res) }()`
// checkable two frames deep. Only a genuinely escaping or unresolvable
// callee still gives the channel up.
package goroutineleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// Name is the analyzer's registry name.
const Name = "goroutineleak"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flags goroutines whose bare channel send/receive on an unbuffered " +
		"function-local channel is not matched by a consumer on every CFG path " +
		"of the enclosing function — the goroutine blocks forever when the " +
		"consuming path is skipped",
	Run:       run,
	FactTypes: []analysis.Fact{(*chanUseFact)(nil)},
}

// Channel-use bits of one parameter, as seen from a caller.
const (
	useSend   uint8 = 1 << iota // the callee may send on it
	useRecv                     // the callee may receive from it (or range)
	useClose                    // the callee may close it
	useEscape                   // the callee leaks the reference onward
)

// chanUseFact summarizes a function's per-parameter channel behavior for
// importing packages. Masks[i] is the use-bit union for parameter i
// (zero for non-channel parameters).
type chanUseFact struct{ Masks []uint8 }

func (*chanUseFact) AFact() {}

func (f *chanUseFact) String() string { return "chanuse" }

func run(pass *analysis.Pass) (interface{}, error) {
	graph := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	w := &walker{pass: pass, graph: graph}
	w.masks = w.computeMasks()
	for _, node := range graph.Nodes {
		if m, ok := w.masks[node.Func]; ok && anyNonzero(m) {
			fact := chanUseFact{Masks: m}
			pass.ExportObjectFact(node.Func, &fact)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.checkBody(fd.Name.Name, fd.Body)
			}
		}
	}
	return nil, nil
}

func anyNonzero(m []uint8) bool {
	for _, b := range m {
		if b != 0 {
			return true
		}
	}
	return false
}

type walker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	masks map[*types.Func][]uint8
}

// computeMasks runs the intra-package summary fixpoint: masks only gain
// bits, so iteration is monotone and bounded.
func (w *walker) computeMasks() map[*types.Func][]uint8 {
	masks := map[*types.Func][]uint8{}
	w.masks = masks
	for _, n := range w.graph.Nodes {
		sig, ok := n.Func.Type().(*types.Signature)
		if !ok {
			continue
		}
		masks[n.Func] = make([]uint8, sig.Params().Len())
	}
	for round := 0; round < 32; round++ {
		changed := false
		for _, n := range w.graph.Nodes {
			if w.updateMask(n, masks) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return masks
}

// updateMask recomputes one function's per-parameter mask from its body,
// reporting whether any bit was added.
func (w *walker) updateMask(node *callgraph.Node, masks map[*types.Func][]uint8) bool {
	sig, ok := node.Func.Type().(*types.Signature)
	if !ok || node.Decl.Body == nil {
		return false
	}
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, isChan := p.Type().Underlying().(*types.Chan); isChan {
			paramIdx[p] = i
		}
	}
	if len(paramIdx) == 0 {
		return false
	}
	cur := masks[node.Func]
	next := append([]uint8(nil), cur...)

	// handled marks the exact ident nodes whose use is classified; every
	// other mention of a channel parameter is an escape.
	handled := map[*ast.Ident]bool{}
	mark := func(e ast.Expr, bits uint8) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := w.pass.TypesInfo.Uses[id]
		if obj == nil {
			return
		}
		if i, ok := paramIdx[obj]; ok {
			handled[id] = true
			next[i] |= bits
		}
	}
	ast.Inspect(node.Decl.Body, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.SendStmt:
			mark(nn.Chan, useSend)
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				mark(nn.X, useRecv)
			}
		case *ast.RangeStmt:
			mark(nn.X, useRecv)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
				if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "close":
						if len(nn.Args) == 1 {
							mark(nn.Args[0], useClose)
						}
					case "len", "cap":
						for _, a := range nn.Args {
							mark(a, 0) // pure observation
						}
					}
					return true
				}
			}
			for ai, a := range nn.Args {
				id, ok := ast.Unparen(a).(*ast.Ident)
				if !ok {
					continue
				}
				obj := w.pass.TypesInfo.Uses[id]
				if obj == nil {
					continue
				}
				if _, isParam := paramIdx[obj]; !isParam {
					continue
				}
				mark(a, w.argMask(nn, ai))
			}
		}
		return true
	})
	ast.Inspect(node.Decl.Body, func(nn ast.Node) bool {
		id, ok := nn.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		obj := w.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if i, ok := paramIdx[obj]; ok {
			next[i] |= useEscape
		}
		return true
	})

	changed := false
	for i := range next {
		if next[i] != cur[i] {
			changed = true
		}
	}
	masks[node.Func] = next
	return changed
}

// masksFor returns a callee's per-parameter masks, from the in-package
// fixpoint or (cross-package) an imported fact.
func (w *walker) masksFor(fn *types.Func) ([]uint8, bool) {
	if m, ok := w.masks[fn]; ok {
		return m, true
	}
	var f chanUseFact
	if w.pass.ImportObjectFact(fn, &f) {
		return f.Masks, true
	}
	return nil, false
}

// argMask returns what the call may do to its i-th argument: the union
// over resolved callees' parameter masks, or useEscape when any callee
// is unknown, unsummarized, or takes the argument variadically.
func (w *walker) argMask(call *ast.CallExpr, i int) uint8 {
	callees, kind := w.graph.Resolver.Callees(call)
	if kind == callgraph.KindUnknown || len(callees) == 0 {
		return useEscape
	}
	var mask uint8
	for _, fn := range callees {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || i >= sig.Params().Len() {
			return useEscape
		}
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			return useEscape
		}
		m, ok := w.masksFor(fn)
		if !ok {
			return useEscape
		}
		if i < len(m) {
			mask |= m[i]
		}
	}
	return mask
}

// opKind distinguishes the two ways a goroutine can park on a channel.
type opKind int

const (
	opSend opKind = iota
	opRecv
)

func (k opKind) String() string {
	if k == opSend {
		return "sends on"
	}
	return "receives from"
}

// checkBody analyzes one function body: candidate channels, goroutine
// launches, and the all-paths consumer check.
func (w *walker) checkBody(fname string, body *ast.BlockStmt) {
	cands := w.localUnbuffered(body)
	if len(cands) == 0 {
		return
	}
	w.dropEscaping(body, cands)
	if len(cands) == 0 {
		return
	}

	g := cfg.New(body)
	for _, b := range g.Reachable() {
		for i, n := range b.Nodes {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				continue
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				continue
			}
			w.checkLaunch(fname, g, b, i, gs, lit, cands)
		}
	}
}

// localUnbuffered returns the variables bound to `make(chan T)` with no
// buffer (or an explicit 0) directly in this body.
func (w *walker) localUnbuffered(body *ast.BlockStmt) map[types.Object]string {
	cands := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := w.pass.TypesInfo.Defs[id]
			if obj == nil {
				continue
			}
			if _, isChan := obj.Type().(*types.Chan); !isChan {
				continue
			}
			if w.isUnbufferedMake(as.Rhs[i]) {
				cands[obj] = id.Name
			}
		}
		return true
	})
	return cands
}

func (w *walker) isUnbufferedMake(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) < 1 {
		return false
	}
	if _, isChan := w.pass.TypesInfo.Types[call.Args[0]].Type.(*types.Chan); !isChan {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	// make(chan T, n): unbuffered only when n is the constant 0.
	tv, ok := w.pass.TypesInfo.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}

// dropEscaping removes channels whose reference leaves the function:
// once another owner exists, someone else may unblock the goroutine.
// A call whose callee is summarized (in-package or via an imported
// chanUseFact) is not an escape unless the summary says so; its send/
// receive/close behavior is credited at the call site instead.
func (w *walker) dropEscaping(body *ast.BlockStmt, cands map[types.Object]string) {
	kill := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
				delete(cands, obj)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "close", "len", "cap", "make":
						return true // builtins don't capture the channel
					}
				}
			}
			for i, a := range n.Args {
				if w.argMask(n, i)&useEscape != 0 {
					kill(a)
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if _, isMake := ast.Unparen(r).(*ast.CallExpr); !isMake {
					kill(r) // aliasing: ch2 := ch
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				kill(r)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					kill(kv.Value)
				} else {
					kill(e)
				}
			}
		case *ast.SendStmt:
			kill(n.Value) // a channel sent over a channel escapes
		}
		return true
	})
}

// launchOp is one bare channel operation found in a goroutine body.
type launchOp struct {
	obj  types.Object
	name string
	kind opKind
}

// checkLaunch inspects one `go func(){...}()` and reports operations
// whose consumer is missing on some path from the launch to return.
func (w *walker) checkLaunch(fname string, g *cfg.Graph, goBlock *cfg.Block, goIdx int, gs *ast.GoStmt, lit *ast.FuncLit, cands map[types.Object]string) {
	ops := w.bareOps(lit, cands)
	if len(ops) == 0 {
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].name < ops[j].name })

	reported := map[types.Object]bool{}
	for _, op := range ops {
		if reported[op.obj] {
			continue
		}
		if w.usedInOtherFuncLit(g, op.obj, lit) {
			continue // a deferred or sibling closure may drain it
		}
		if w.consumedOnAllPaths(g, goBlock, goIdx, op) {
			continue
		}
		reported[op.obj] = true
		need := "receive from"
		fix := "buffer the channel or select on ctx.Done() in the goroutine"
		if op.kind == opRecv {
			need = "send to or close"
			fix = "close the channel on every path or select on ctx.Done() in the goroutine"
		}
		w.pass.Reportf(gs.Pos(),
			"goroutine %s %s with no select escape, and %s does not %s %s on every path "+
				"to return — when the consuming path is skipped the goroutine blocks forever; %s",
			op.kind, op.name, fname, need, op.name, fix)
	}
}

// bareOps collects sends/receives on candidate channels in the goroutine
// body that sit outside any select (and outside nested funclits). A call
// handing a candidate to a summarized callee that sends or receives is a
// bare operation too: the goroutine parks inside the callee.
func (w *walker) bareOps(lit *ast.FuncLit, cands map[types.Object]string) []launchOp {
	var ops []launchOp
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(nn ast.Node) bool {
			switch nn := nn.(type) {
			case *ast.SelectStmt:
				return false // a select arm has an escape; not bare
			case *ast.FuncLit:
				if nn != lit {
					return false
				}
			case *ast.SendStmt:
				if obj, name, ok := w.candChan(nn.Chan, cands); ok {
					ops = append(ops, launchOp{obj, name, opSend})
				}
			case *ast.UnaryExpr:
				if nn.Op.String() == "<-" {
					if obj, name, ok := w.candChan(nn.X, cands); ok {
						ops = append(ops, launchOp{obj, name, opRecv})
					}
				}
			case *ast.RangeStmt:
				if obj, name, ok := w.candChan(nn.X, cands); ok {
					ops = append(ops, launchOp{obj, name, opRecv})
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
					if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						return true // close/len/cap never block
					}
				}
				for i, a := range nn.Args {
					obj, name, ok := w.candChan(a, cands)
					if !ok {
						continue
					}
					mask := w.argMask(nn, i)
					if mask&useEscape != 0 {
						continue // dropEscaping already disqualified it
					}
					if mask&useSend != 0 {
						ops = append(ops, launchOp{obj, name, opSend})
					}
					if mask&useRecv != 0 {
						ops = append(ops, launchOp{obj, name, opRecv})
					}
				}
			}
			return true
		})
	}
	walk(lit.Body)
	return ops
}

func (w *walker) candChan(e ast.Expr, cands map[types.Object]string) (types.Object, string, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	obj := w.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil, "", false
	}
	name, ok := cands[obj]
	return obj, name, ok
}

// usedInOtherFuncLit reports whether the channel is touched inside a
// function literal other than the analyzed goroutine body anywhere in
// the graph — deferred drains and sibling workers make the all-paths
// check on the enclosing body meaningless.
func (w *walker) usedInOtherFuncLit(g *cfg.Graph, obj types.Object, lit *ast.FuncLit) bool {
	found := false
	seen := map[*ast.FuncLit]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(nn ast.Node) bool {
				other, ok := nn.(*ast.FuncLit)
				if !ok || other == lit || seen[other] {
					return true
				}
				seen[other] = true
				ast.Inspect(other.Body, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == obj {
						found = true
					}
					return !found
				})
				return false
			})
		}
	}
	return found
}

// consumedOnAllPaths runs the backward must-dataflow: from the go
// statement, every path to the exit must pass a matching consumer.
func (w *walker) consumedOnAllPaths(g *cfg.Graph, goBlock *cfg.Block, goIdx int, op launchOp) bool {
	// A consumer later in the launch block settles it without dataflow.
	for _, n := range goBlock.Nodes[goIdx+1:] {
		if w.nodeConsumes(n, op) {
			return true
		}
	}
	consumes := map[*cfg.Block]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if w.nodeConsumes(n, op) {
				consumes[b] = true
				break
			}
		}
	}
	res := dataflow.Solve(g, dataflow.SetLattice{Intersect: true}, dataflow.Backward, dataflow.Set{},
		func(b *cfg.Block, in dataflow.Set) dataflow.Set {
			if consumes[b] || b.PanicExit {
				in["consumed"] = true
			}
			return in
		})
	in, ok := res.In[goBlock]
	if !ok {
		return true // no path from the launch to the exit at all
	}
	return in["consumed"]
}

// nodeConsumes reports whether a CFG node performs the operation that
// unblocks the goroutine: a receive for a send, a send or close for a
// receive. Function literals are skipped (handled by usedInOtherFuncLit)
// and a range header only contributes its channel expression.
func (w *walker) nodeConsumes(n ast.Node, op launchOp) bool {
	if r, ok := n.(*ast.RangeStmt); ok {
		if op.kind == opSend {
			if id, ok := ast.Unparen(r.X).(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == op.obj {
				return true // ranging over the channel receives
			}
		}
		return false // the body's statements live in their own blocks
	}
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		switch nn := nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if op.kind == opSend && nn.Op.String() == "<-" {
				if id, ok := ast.Unparen(nn.X).(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == op.obj {
					found = true
				}
			}
		case *ast.SendStmt:
			if op.kind == opRecv {
				if id, ok := ast.Unparen(nn.Chan).(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == op.obj {
					found = true
				}
			}
		case *ast.CallExpr:
			if fid, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
				if b, ok := w.pass.TypesInfo.Uses[fid].(*types.Builtin); ok {
					if op.kind == opRecv && b.Name() == "close" && len(nn.Args) == 1 {
						if id, ok := ast.Unparen(nn.Args[0]).(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == op.obj {
							found = true
						}
					}
					return !found
				}
			}
			// A summarized callee that performs the matching operation on
			// the passed channel unblocks the goroutine.
			for i, a := range nn.Args {
				id, ok := ast.Unparen(a).(*ast.Ident)
				if !ok || w.pass.TypesInfo.Uses[id] != op.obj {
					continue
				}
				mask := w.argMask(nn, i)
				if mask&useEscape != 0 {
					continue
				}
				if op.kind == opSend && mask&useRecv != 0 {
					found = true
				}
				if op.kind == opRecv && mask&(useSend|useClose) != 0 {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
