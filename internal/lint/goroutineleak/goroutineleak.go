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
	"slices"
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
	useOther                    // any other mention (classifier only)
)

// chanUseFact summarizes a function's per-parameter channel behavior for
// importing packages. Masks[i] is the use-bit union for parameter i
// (zero for non-channel parameters).
type chanUseFact struct{ Masks []uint8 }

func (*chanUseFact) AFact() {}

func run(pass *analysis.Pass) (interface{}, error) {
	w := &walker{pass: pass, sums: callgraph.NewSummaries[chanUseFact](pass)}
	w.computeMasks()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.checkBody(fd.Name.Name, fd.Body)
			}
		}
	}
	return nil, nil
}

type walker struct {
	pass *analysis.Pass
	sums *callgraph.Summaries[*chanUseFact]
}

// computeMasks solves the per-parameter channel summaries. Every function
// starts with no use of any parameter, and masks only gain bits, so a
// recursive call reads the summary of the round before.
func (w *walker) computeMasks() {
	for _, n := range w.sums.Nodes {
		w.sums.Local[n.Func] = &chanUseFact{Masks: make([]uint8, n.Func.Type().(*types.Signature).Params().Len())}
	}
	w.sums.Solve(func(n *callgraph.Node) bool {
		params := n.Func.Type().(*types.Signature).Params()
		old := w.sums.Local[n.Func].Masks
		next := slices.Clone(old)
		w.chanUses(n.Decl.Body, nil, func(obj types.Object, bits uint8) {
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == obj {
					if bits&useOther != 0 {
						bits = useEscape // a channel parameter anywhere else escapes
					}
					next[i] |= bits
				}
			}
		})
		w.sums.Local[n.Func] = &chanUseFact{Masks: next}
		return !slices.Equal(old, next)
	})
	w.sums.Export(func(f *chanUseFact) bool { return slices.ContainsFunc(f.Masks, func(b uint8) bool { return b != 0 }) })
}

// chanUses is the one classifier of channel operations: it calls fn for
// every mention of a channel variable under root with the use bits of that
// mention — useSend, useRecv (a receive or a range), useClose, none for
// len, cap and make, argMask for an argument of a call, useEscape for a
// value sent, assigned, returned, put in a composite literal or passed to
// another builtin, and useOther for any other mention. enter, if non-nil,
// says whether to descend into a node below root.
func (w *walker) chanUses(root ast.Node, enter func(ast.Node) bool, fn func(obj types.Object, bits uint8)) {
	classified := map[ast.Expr]bool{}
	use := func(e ast.Expr, bits uint8) {
		if obj := w.chanVar(e); obj != nil {
			classified[ast.Unparen(e)] = true
			fn(obj, bits)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n != root && enter != nil && n != nil && !enter(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			use(n.Chan, useSend)
			use(n.Value, useEscape)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				use(n.X, useRecv)
			}
		case *ast.RangeStmt:
			use(n.X, useRecv)
		case *ast.CallExpr:
			var b string
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if bi, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					b = bi.Name()
				}
			}
			for i, a := range n.Args {
				bits := useEscape
				switch {
				case b == "close" && len(n.Args) == 1:
					bits = useClose
				case b == "len" || b == "cap" || b == "make":
					bits = 0
				case b == "" && w.chanVar(a) != nil:
					bits = w.argMask(n, i)
				}
				use(a, bits)
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				use(r, useEscape) // aliasing: ch2 := ch
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				use(r, useEscape)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				use(e, useEscape)
			}
		case *ast.Ident:
			if !classified[n] {
				use(n, useOther)
			}
		}
		return true
	})
}

// chanVar returns the channel variable an expression names, or nil.
func (w *walker) chanVar(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
			if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
				return obj
			}
		}
	}
	return nil
}

// argMask returns what the call may do to its i-th argument: the union
// over resolved callees' parameter masks, or useEscape when any callee
// is unknown, unsummarized, or takes the argument variadically.
func (w *walker) argMask(call *ast.CallExpr, i int) uint8 {
	callees, kind := w.sums.Resolver.Callees(call)
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
		f, ok := w.sums.Of(fn)
		if !ok {
			return useEscape
		}
		if i < len(f.Masks) {
			mask |= f.Masks[i]
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
	w.chanUses(body, nil, func(obj types.Object, bits uint8) {
		if bits&useEscape != 0 {
			delete(cands, obj)
		}
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
	enter := func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SelectStmt: // a select arm has an escape; not bare
			return false
		case *ast.FuncLit:
			return false
		}
		return true
	}
	w.chanUses(lit.Body, enter, func(obj types.Object, bits uint8) {
		name, ok := cands[obj]
		if !ok || bits&useEscape != 0 {
			return // dropEscaping already disqualified an escaping one
		}
		if bits&useSend != 0 {
			ops = append(ops, launchOp{obj, name, opSend})
		}
		if bits&useRecv != 0 {
			ops = append(ops, launchOp{obj, name, opRecv})
		}
	})
	return ops
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
	want := useRecv
	if op.kind == opRecv {
		want = useSend | useClose
	}
	var body ast.Node
	if r, ok := n.(*ast.RangeStmt); ok {
		body = r.Body // the body's statements live in their own blocks
	}
	found := false
	enter := func(m ast.Node) bool {
		_, lit := m.(*ast.FuncLit)
		return !found && !lit && m != body
	}
	w.chanUses(n, enter, func(obj types.Object, bits uint8) {
		if obj == op.obj && bits&useEscape == 0 && bits&want != 0 {
			found = true
		}
	})
	return found
}
