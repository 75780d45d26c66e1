// Package taint is the suite's summary-based interprocedural taint
// engine. A client analyzer (nondetflow, errflow) describes its domain as
// a Spec — what introduces taint (sources), where tainted values must not
// arrive (sinks), what cleanses them (kills), and how specific well-known
// calls transfer taint — and the engine does the rest: a flow-sensitive
// forward may-analysis over each function's internal/lint/cfg graph via
// the shared internal/lint/dataflow solver, composed across functions by
// per-function summaries and across packages by Facts the client exports.
//
// The abstract state maps (variable, label) pairs to "may be tainted";
// labels record provenance. "p<i>" and "recv" mean "flows from parameter
// i / the receiver" and feed summaries; "src:<desc>" means "flows from an
// intrinsic source inside some analyzed function" and feeds diagnostics.
// A function's Summary says which labels reach which results (Results,
// with result -1 meaning the receiver, covering receiver/field transfer)
// and which parameters reach a sink inside it or its callees (Sinks, with
// the call chain recorded in Via). Applying a callee's summary at a call
// site substitutes actual-argument taint for parameter labels, so a
// source laundered through any depth of module-local helpers still
// arrives at the sink with its provenance intact — the hole the
// intraprocedural suite could not close.
//
// Within one package the engine iterates the callgraph's functions in
// source order to a summary fixpoint (summaries only grow, so iteration
// terminates), then replays every function once more to report findings
// deterministically. Across packages the client's Lookup/fact plumbing
// supplies summaries for imported functions as object facts.
//
// Suppression is taint-aware: an //lint:ignore <analyzer> directive
// covering a source or an assignment kills the taint at that point — and
// the engine records the consumption through Pass.MarkIgnoreUsed so the
// unusedignore audit sees the directive as live even though no diagnostic
// was ever produced at its line.
//
// Known, deliberate approximations: taint on a composite value is
// tracked per variable, not per field (a tainted field taints the whole
// object); function literals are analyzed as closed functions (captured
// variables do not carry taint in); parameter-to-parameter mutation
// flows are not summarized (only parameter-to-result, -to-receiver and
// -to-sink are).
package taint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// RecvLabel is the provenance label of the receiver.
const RecvLabel = "recv"

// RecvResult is the Result index denoting "flows into the receiver".
const RecvResult = -1

// RecvFieldLabel returns the provenance label of one first-level field of
// the receiver ("recv.stats"). Field-scoped receiver labels keep one
// method's clock-stamped statistics field from tainting every other field
// a sibling method hands to a sink.
func RecvFieldLabel(field string) string { return RecvLabel + "." + field }

// ParamLabel returns the provenance label of parameter i.
func ParamLabel(i int) string { return "p" + strconv.Itoa(i) }

// SourceLabel returns the provenance label of an intrinsic source.
func SourceLabel(desc string) string { return "src:" + desc }

// sourceDesc extracts the description from a source label, or "" for
// parameter/receiver labels.
func sourceDesc(label string) string {
	if s, ok := strings.CutPrefix(label, "src:"); ok {
		return s
	}
	return ""
}

// paramIndex parses a "p<i>" label, returning -1 for any other label.
func paramIndex(label string) int {
	s, ok := strings.CutPrefix(label, "p")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return i
}

// A ResultFlow records one provenance label reaching one result of a
// function (or its receiver, Result == RecvResult). For receiver flows,
// Field names the first-level receiver field written ("" = the whole
// receiver), so call sites can scope the incoming taint to that field.
type ResultFlow struct {
	From   string // "p<i>", "recv", "recv.<field>", or "src:<desc>"
	Result int
	Field  string // first-level receiver field, RecvResult flows only
}

// A SinkFlow records a parameter or the receiver reaching a sink inside
// the function or transitively inside its callees.
type SinkFlow struct {
	From string // "p<i>", "recv", or "recv.<field>"
	Sink string // sink description
	Via  string // call chain from this function to the sink, "" if direct
}

// A Summary is the exportable interprocedural behavior of one function.
// The zero Summary means "no flows". All slices are sorted and
// duplicate-free (normalize), so summaries compare with Equal and encode
// deterministically as Facts.
type Summary struct {
	Results []ResultFlow
	Sinks   []SinkFlow
}

// Empty reports whether the summary carries no flows.
func (s Summary) Empty() bool { return len(s.Results) == 0 && len(s.Sinks) == 0 }

func (s *Summary) normalize() {
	slices.SortFunc(s.Results, func(a, b ResultFlow) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Result, b.Result), cmp.Compare(a.Field, b.Field))
	})
	s.Results = slices.Compact(s.Results)
	slices.SortFunc(s.Sinks, func(a, b SinkFlow) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Sink, b.Sink), cmp.Compare(a.Via, b.Via))
	})
	s.Sinks = slices.Compact(s.Sinks)
}

// Equal reports whether two normalized summaries are identical.
func (s Summary) Equal(o Summary) bool {
	return slices.Equal(s.Results, o.Results) && slices.Equal(s.Sinks, o.Sinks)
}

// A SinkUse declares that the value of one expression flows into a sink.
// Spec.Sinks returns these for the nodes it recognizes.
type SinkUse struct {
	Value ast.Expr
	Desc  string
}

// A Finding is one source-to-sink flow, reported at the sink (or at the
// call forwarding into the sink, with the chain in Via).
type Finding struct {
	Pos    token.Pos
	Source string // source description (no "src:" prefix)
	Sink   string
	Via    string // call chain, "" when the sink is in the reported function
}

// Spec configures one client analysis.
type Spec struct {
	// Analyzer is the client's analyzer name, used to honor
	// //lint:ignore <Analyzer> taint kills.
	Analyzer string

	// SourceExpr classifies an expression (typically a call or a
	// selector) as an intrinsic taint source, returning a short
	// description or "".
	SourceExpr func(e ast.Expr) string

	// RangeSource classifies a range statement whose iteration order
	// taints the key/value variables (map iteration), returning a
	// description or "". Taint of the ranged operand flows into the
	// variables regardless.
	RangeSource func(rs *ast.RangeStmt) string

	// Sinks returns the sink uses of one AST node. The engine calls it
	// for every node and subexpression (excluding nested function
	// literals) in replay order.
	Sinks func(n ast.Node) []SinkUse

	// Kills returns expressions whose root variable's taint a call
	// removes (e.g. the slice argument of sort.Slice). May be nil.
	Kills func(call *ast.CallExpr) []ast.Expr

	// TransferCall overrides taint propagation for one call: handled
	// means the engine taints result i from exactly the expressions in
	// byResult[i] (an empty row means the result is clean). Use it for
	// well-known externals — fmt.Errorf's %w arguments, (error).Error().
	// May be nil.
	TransferCall func(call *ast.CallExpr) (byResult [][]ast.Expr, handled bool)

	// PropagateUnknown, when set, makes a call with no resolvable callee
	// or summary taint all its results from all its arguments (and
	// receiver). nondetflow wants this (math.Sqrt of a tainted value is
	// tainted); errflow does not (errors.Is of a tainted error is a
	// clean bool).
	PropagateUnknown bool

	// Lookup returns the summary of a function not defined in the
	// package under analysis — the client's fact import. May be nil.
	Lookup func(fn *types.Func) (Summary, bool)

	// Visit, if non-nil, is called for every replayed node with a taint
	// query valid at that program point, for client checks that do not
	// fit the source/sink mold. The query returns the sorted provenance
	// labels of an expression.
	Visit func(n ast.Node, taintOf func(e ast.Expr) []string)
}

// Result is the outcome of Run: deterministic findings plus the final
// summaries of every function declared in the package, for the client to
// export as Facts.
type Result struct {
	Findings  []Finding
	Summaries map[*types.Func]Summary
	Graph     *callgraph.Graph
}

// maxFixpointRounds bounds the intra-package summary iteration; summaries
// grow monotonically, so the bound only guards against bugs.
const maxFixpointRounds = 32

// Run executes the analysis over one package.
func Run(pass *analysis.Pass, spec Spec) *Result {
	eng := &engine{
		pass:      pass,
		spec:      spec,
		graph:     callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files),
		ignores:   analysis.NewIgnoreIndex(pass.Fset, pass.Files),
		summaries: map[*types.Func]Summary{},
		reported:  map[string]bool{},
	}

	// Phase 1: summary fixpoint over declared functions in source order.
	for round := 0; round < maxFixpointRounds; round++ {
		changed := false
		for _, node := range eng.graph.Nodes {
			sum := eng.analyze(node.Decl.Body, params(node.Func.Type().(*types.Signature)), nil)
			sum.normalize()
			if !sum.Equal(eng.summaries[node.Func]) {
				eng.summaries[node.Func] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: replay with reporting — declared functions, then every
	// function literal as its own closed function.
	for _, node := range eng.graph.Nodes {
		eng.analyze(node.Decl.Body, params(node.Func.Type().(*types.Signature)), eng.report)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				eng.analyze(lit.Body, params(pass.TypesInfo.TypeOf(lit).(*types.Signature)), eng.report)
			}
			return true
		})
	}

	return &Result{Findings: eng.findings, Summaries: eng.summaries, Graph: eng.graph}
}

type engine struct {
	pass      *analysis.Pass
	spec      Spec
	graph     *callgraph.Graph
	ignores   *analysis.IgnoreIndex
	summaries map[*types.Func]Summary
	findings  []Finding
	reported  map[string]bool
}

// report appends a deduplicated finding.
func (e *engine) report(f Finding) {
	key := fmt.Sprintf("%d|%s|%s|%s", f.Pos, f.Source, f.Sink, f.Via)
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.findings = append(e.findings, f)
}

// param seeds the boundary state for one function: receiver and
// parameters labeled with their own provenance.
type param struct {
	obj   types.Object
	label string
}

func params(sig *types.Signature) []param {
	var out []param
	if recv := sig.Recv(); recv != nil {
		out = append(out, param{recv, RecvLabel})
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, param{sig.Params().At(i), ParamLabel(i)})
	}
	return out
}

// objKey renders a stable state key for one object.
func objKey(obj types.Object) string {
	return obj.Name() + "#" + strconv.Itoa(int(obj.Pos()))
}

func stateKey(obj types.Object, label string) string {
	return objKey(obj) + "\x00" + label
}

// fieldPrefix is the state-key prefix of one first-level field of an
// object: writes through x.f (at any depth below f) land here instead of
// on the whole-object key, so sibling fields stay independent. Go
// identifiers cannot contain '#' or '.', so the prefixes never collide
// with another object's whole-object keys.
func fieldPrefix(obj types.Object, field string) string {
	return objKey(obj) + "." + field + "\x00"
}

// analyze runs the dataflow solve over one body and replays it, building
// the function's summary; when report is non-nil, source-to-sink flows
// are also emitted as findings.
func (e *engine) analyze(body *ast.BlockStmt, params []param, report func(Finding)) Summary {
	if body == nil {
		return Summary{}
	}
	g := cfg.New(body)
	boundary := dataflow.Set{}
	for _, p := range params {
		boundary[stateKey(p.obj, p.label)] = true
	}
	fe := &fnEval{engine: e, params: params}
	lat := dataflow.SetLattice{Intersect: false}
	res := dataflow.Solve(g, lat, dataflow.Forward, boundary,
		func(b *cfg.Block, in dataflow.Set) dataflow.Set {
			fe.state = in
			for _, n := range b.Nodes {
				fe.node(n)
			}
			return fe.state
		})

	// Replay in block-index order from the solved in-states: summary
	// collection and reporting happen here, against fixpoint facts.
	fe.sum = &Summary{}
	fe.reportFn = report
	for _, b := range g.Reachable() {
		fe.state = lat.Clone(res.In[b])
		for _, n := range b.Nodes {
			fe.node(n)
		}
	}
	sum := *fe.sum
	sum.normalize()
	return sum
}

// fnEval evaluates one function's nodes against the abstract state.
type fnEval struct {
	*engine
	params   []param
	state    dataflow.Set
	sum      *Summary      // non-nil during replay
	reportFn func(Finding) // non-nil during the reporting replay
}

// labelsOf returns the state's whole-object labels for one object
// (field-scoped labels live under fieldPrefix keys and are joined in by
// fieldRead).
func (fe *fnEval) labelsOf(obj types.Object) map[string]bool {
	if obj == nil {
		return nil
	}
	return fe.labelsAt(objKey(obj) + "\x00")
}

// fieldLabels returns the labels stored for one first-level field.
func (fe *fnEval) fieldLabels(obj types.Object, field string) map[string]bool {
	if obj == nil {
		return nil
	}
	return fe.labelsAt(fieldPrefix(obj, field))
}

func (fe *fnEval) labelsAt(prefix string) map[string]bool {
	var out map[string]bool
	// Collect matching keys; the result is a set, so visit order cannot
	// leak into it.
	//lint:ignore nondetflow membership scan into a set: result independent of visit order
	for k := range fe.state {
		if strings.HasPrefix(k, prefix) {
			if out == nil {
				out = map[string]bool{}
			}
			out[k[len(prefix):]] = true
		}
	}
	return out
}

// setLabels strongly updates an object: the whole-object key and every
// field-scoped key are cleared before the new labels (if any) are added.
func (fe *fnEval) setLabels(obj types.Object, labels map[string]bool) {
	if obj == nil {
		return
	}
	fe.clearPrefix(objKey(obj) + "\x00")
	fe.clearPrefix(objKey(obj) + ".")
	fe.addLabels(obj, labels)
}

// clearField kills the taint of one first-level field only; sibling
// fields and the whole-object labels survive.
func (fe *fnEval) clearField(obj types.Object, field string) {
	if obj == nil {
		return
	}
	fe.clearPrefix(fieldPrefix(obj, field))
}

func (fe *fnEval) clearPrefix(prefix string) {
	var stale []string
	//lint:ignore nondetflow key collection before delete: order-insensitive
	for k := range fe.state {
		if strings.HasPrefix(k, prefix) {
			stale = append(stale, k)
		}
	}
	for _, k := range stale {
		delete(fe.state, k)
	}
}

func (fe *fnEval) addLabels(obj types.Object, labels map[string]bool) {
	if obj == nil || len(labels) == 0 {
		return
	}
	//lint:ignore nondetflow set union into state: membership-only writes
	for l := range labels {
		fe.state[stateKey(obj, l)] = true
	}
}

// addFieldLabels weakly taints one first-level field of an object.
func (fe *fnEval) addFieldLabels(obj types.Object, field string, labels map[string]bool) {
	if obj == nil || len(labels) == 0 {
		return
	}
	prefix := fieldPrefix(obj, field)
	//lint:ignore nondetflow set union into state: membership-only writes
	for l := range labels {
		fe.state[prefix+l] = true
	}
}

// covered reports whether an //lint:ignore for the client analyzer covers
// pos, consuming the directive so the audit sees it as live.
func (fe *fnEval) covered(pos token.Pos) bool {
	if !fe.ignores.Covers(pos, fe.spec.Analyzer) {
		return false
	}
	fe.pass.ConsumeIgnore(pos, fe.spec.Analyzer)
	return true
}

// sortedLabels renders a label set for deterministic iteration.
func sortedLabels(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func union(a, b map[string]bool) map[string]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(b))
	//lint:ignore nondetflow set union: membership-only writes
	for k := range a {
		out[k] = true
	}
	//lint:ignore nondetflow set union: membership-only writes
	for k := range b {
		out[k] = true
	}
	return out
}

// node processes one CFG node (statement or branch condition) in
// execution order.
func (fe *fnEval) node(n ast.Node) {
	if fe.spec.Visit != nil && fe.reportFn != nil {
		fe.spec.Visit(n, func(e ast.Expr) []string { return sortedLabels(fe.taintOf(e)) })
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		fe.checkSinks(n)
		fe.assign(n)
	case *ast.DeclStmt:
		fe.checkSinks(n)
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					fe.valueSpec(vs)
				}
			}
		}
	case *ast.RangeStmt:
		// The header node: per-iteration key/value binding.
		fe.rangeAssign(n)
	case *ast.ReturnStmt:
		fe.checkSinks(n)
		fe.returns(n)
	case *ast.ExprStmt:
		fe.checkSinks(n)
		fe.sideEffects(n.X)
	case *ast.GoStmt:
		fe.checkSinks(n)
		fe.sideEffects(n.Call)
	case *ast.DeferStmt:
		fe.checkSinks(n)
		fe.sideEffects(n.Call)
	case *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt, *ast.BranchStmt:
		fe.checkSinks(n)
	case ast.Stmt:
		fe.checkSinks(n)
	case ast.Expr:
		// Branch conditions and switch tags: sinks can hide in calls.
		fe.checkSinks(n)
		fe.sideEffects(n)
	}
}

// sideEffects evaluates an expression for its call effects (kills,
// receiver taint, summary sinks) without consuming the value.
func (fe *fnEval) sideEffects(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fe.callResults(call)
		}
		return true
	})
}

// checkSinks walks a node (not descending into function literals) and
// evaluates every declared sink use against the current state.
func (fe *fnEval) checkSinks(n ast.Node) {
	if fe.spec.Sinks == nil {
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		if sub == nil {
			return false
		}
		for _, use := range fe.spec.Sinks(sub) {
			fe.sinkUse(use, "")
		}
		return true
	})
}

// sinkUse records/reports the labels reaching one sink.
func (fe *fnEval) sinkUse(use SinkUse, via string) {
	labels := fe.taintOf(use.Value)
	for _, l := range sortedLabels(labels) {
		if desc := sourceDesc(l); desc != "" {
			if fe.reportFn != nil {
				fe.reportFn(Finding{Pos: use.Value.Pos(), Source: desc, Sink: use.Desc, Via: via})
			}
			continue
		}
		// Parameter/receiver provenance: part of this function's summary.
		if fe.sum != nil {
			fe.sum.Sinks = append(fe.sum.Sinks, SinkFlow{From: l, Sink: use.Desc, Via: via})
		}
	}
}

// assign handles every assignment form.
func (fe *fnEval) assign(n *ast.AssignStmt) {
	switch {
	case len(n.Lhs) == len(n.Rhs):
		// Evaluate all RHS first (Go's order), then bind.
		taints := make([]map[string]bool, len(n.Rhs))
		for i, rhs := range n.Rhs {
			taints[i] = fe.taintOf(rhs)
		}
		for i, lhs := range n.Lhs {
			fe.bind(lhs, taints[i], n.Pos())
		}
	case len(n.Rhs) == 1:
		// Multi-value: x, y := f() — per-result taint.
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			results := fe.callTaints(call)
			for i, lhs := range n.Lhs {
				var t map[string]bool
				if i < len(results) {
					t = results[i]
				}
				fe.bind(lhs, t, n.Pos())
			}
			return
		}
		// v, ok := m[k] / x.(T) / <-ch: taint both from the operand.
		t := fe.taintOf(n.Rhs[0])
		for _, lhs := range n.Lhs {
			fe.bind(lhs, t, n.Pos())
		}
	}
}

func (fe *fnEval) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Names) == len(vs.Values) {
		for i, name := range vs.Names {
			fe.bindIdent(name, fe.taintOf(vs.Values[i]), vs.Pos())
		}
		return
	}
	if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok && len(vs.Values) == 1 {
		results := fe.callTaints(call)
		for i, name := range vs.Names {
			var t map[string]bool
			if i < len(results) {
				t = results[i]
			}
			fe.bindIdent(name, t, vs.Pos())
		}
	}
}

// bind assigns taint to an lvalue. Plain identifiers get a strong update;
// selector/index targets weakly taint their root object (field transfer).
// An //lint:ignore for the analyzer covering the assignment kills the
// incoming taint.
func (fe *fnEval) bind(lhs ast.Expr, taint map[string]bool, at token.Pos) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		fe.bindIdent(lhs, taint, at)
	default:
		if len(taint) == 0 {
			return
		}
		if fe.covered(at) {
			return
		}
		root, field := fe.rootAndField(lhs)
		if field != "" {
			fe.addFieldLabels(root, field, taint)
		} else {
			fe.addLabels(root, taint)
		}
		fe.recvFlow(root, field, taint)
	}
}

func (fe *fnEval) bindIdent(id *ast.Ident, taint map[string]bool, at token.Pos) {
	if id.Name == "_" {
		return
	}
	obj := fe.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = fe.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if len(taint) > 0 && fe.covered(at) {
		taint = nil
	}
	fe.setLabels(obj, taint)
}

// recvFlow records taint arriving at the receiver object (in field, or
// the whole receiver when field is "") as a summary flow, so callers see
// their receiver — scoped to that field — tainted.
func (fe *fnEval) recvFlow(root types.Object, field string, taint map[string]bool) {
	if fe.sum == nil || root == nil || !fe.isReceiver(root) {
		return
	}
	self := RecvLabel
	if field != "" {
		self = RecvFieldLabel(field)
	}
	for _, l := range sortedLabels(taint) {
		if l == self {
			continue
		}
		fe.sum.Results = append(fe.sum.Results, ResultFlow{From: l, Result: RecvResult, Field: field})
	}
}

// isReceiver reports whether obj is this function's receiver parameter.
func (fe *fnEval) isReceiver(obj types.Object) bool {
	for _, p := range fe.params {
		if p.obj == obj && p.label == RecvLabel {
			return true
		}
	}
	return false
}

// rootAndField resolves an expression chain to its base object and the
// first field selected from it (x.f[i].g → x, "f"); field is "" when the
// chain selects no field (a plain identifier, *p, xs[i]). Qualified
// identifiers resolve to the package-level object with the fields
// selected below it (pkg.Var.f → Var, "f").
func (fe *fnEval) rootAndField(e ast.Expr) (types.Object, string) {
	field := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := fe.pass.TypesInfo.Uses[x]; obj != nil {
				return obj, field
			}
			return fe.pass.TypesInfo.Defs[x], field
		case *ast.SelectorExpr:
			if _, ok := fe.pass.TypesInfo.Selections[x]; !ok {
				// Qualified identifier: x.Sel is the root object.
				return fe.pass.TypesInfo.Uses[x.Sel], field
			}
			field = x.Sel.Name
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, ""
		}
	}
}

// fieldRead returns the labels of a one-level field read root.<field>...:
// field-scoped taint joined with whole-object taint (aliasing and
// whole-value assignments still flow). When root is the receiver, the
// plain receiver entry label narrows to the field-scoped one, so the
// summary records which field was read instead of claiming the whole
// receiver reached the sink.
func (fe *fnEval) fieldRead(root types.Object, field string) map[string]bool {
	labels := union(fe.fieldLabels(root, field), fe.labelsOf(root))
	if !labels[RecvLabel] || !fe.isReceiver(root) {
		return labels
	}
	out := make(map[string]bool, len(labels))
	//lint:ignore nondetflow label rewrite into a set: membership-only writes
	for l := range labels {
		if l == RecvLabel {
			out[RecvFieldLabel(field)] = true
			continue
		}
		out[l] = true
	}
	return out
}

// rangeAssign handles the per-iteration binding of a range header.
func (fe *fnEval) rangeAssign(rs *ast.RangeStmt) {
	taint := fe.taintOf(rs.X)
	if fe.spec.RangeSource != nil {
		if desc := fe.spec.RangeSource(rs); desc != "" {
			if fe.covered(rs.Pos()) {
				// Audited: iteration order deemed harmless here.
			} else {
				taint = union(taint, map[string]bool{SourceLabel(desc): true})
			}
		}
	}
	if rs.Key != nil {
		fe.bind(rs.Key, taint, rs.Pos())
	}
	if rs.Value != nil {
		fe.bind(rs.Value, taint, rs.Pos())
	}
}

// returns records result flows for the summary.
func (fe *fnEval) returns(n *ast.ReturnStmt) {
	if fe.sum == nil {
		return
	}
	for i, res := range n.Results {
		var t map[string]bool
		if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && len(n.Results) == 1 {
			// return f(): spread multi-result taint positionally.
			for j, rt := range fe.callTaints(call) {
				for _, l := range sortedLabels(rt) {
					fe.sum.Results = append(fe.sum.Results, ResultFlow{From: l, Result: j})
				}
			}
			return
		}
		t = fe.taintOf(res)
		for _, l := range sortedLabels(t) {
			fe.sum.Results = append(fe.sum.Results, ResultFlow{From: l, Result: i})
		}
	}
}

// taintOf computes the provenance labels of an expression under the
// current state.
func (fe *fnEval) taintOf(e ast.Expr) map[string]bool {
	if e == nil {
		return nil
	}
	e = ast.Unparen(e)
	if t, ok := fe.source(e); ok {
		return t
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := fe.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = fe.pass.TypesInfo.Defs[e]
		}
		return fe.labelsOf(obj)
	case *ast.SelectorExpr:
		if _, ok := fe.pass.TypesInfo.Selections[e]; ok {
			if root, field := fe.rootAndField(e); root != nil && field != "" {
				return fe.fieldRead(root, field)
			}
			return fe.taintOf(e.X)
		}
		// Qualified identifier: package-level object.
		return fe.labelsOf(fe.pass.TypesInfo.Uses[e.Sel])
	case *ast.CallExpr:
		var all map[string]bool
		for _, r := range fe.callResults(e) {
			all = union(all, r)
		}
		return all
	case *ast.BinaryExpr:
		return union(fe.taintOf(e.X), fe.taintOf(e.Y))
	case *ast.UnaryExpr:
		return fe.taintOf(e.X)
	case *ast.StarExpr:
		return fe.taintOf(e.X)
	case *ast.IndexExpr:
		return union(fe.taintOf(e.X), fe.taintOf(e.Index))
	case *ast.SliceExpr:
		return fe.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return fe.taintOf(e.X)
	case *ast.CompositeLit:
		var all map[string]bool
		for _, elt := range e.Elts {
			all = union(all, fe.taintOf(elt))
		}
		return all
	case *ast.KeyValueExpr:
		return fe.taintOf(e.Value)
	}
	return nil
}

// source classifies e with the client's SourceExpr: ok reports a source,
// whose taint is its label, or nil when an ignore directive covers it.
func (fe *fnEval) source(e ast.Expr) (map[string]bool, bool) {
	if fe.spec.SourceExpr == nil {
		return nil, false
	}
	desc := fe.spec.SourceExpr(e)
	if desc == "" {
		return nil, false
	}
	if fe.covered(e.Pos()) {
		return nil, true
	}
	return map[string]bool{SourceLabel(desc): true}, true
}

// callTaints is the per-result taint of a call whose results are bound
// one by one (x, y := f(); return f()): a source call taints every result
// with its own label, any other call transfers through callResults.
func (fe *fnEval) callTaints(call *ast.CallExpr) []map[string]bool {
	t, ok := fe.source(call)
	if !ok {
		return fe.callResults(call)
	}
	results := make([]map[string]bool, fe.numResults(call))
	for i := range results {
		results[i] = t
	}
	return results
}

// callResults computes per-result taint of a call and applies its side
// effects: kills, callee-summary receiver taint, and callee-summary sink
// flows.
func (fe *fnEval) callResults(call *ast.CallExpr) []map[string]bool {
	nres := fe.numResults(call)
	results := make([]map[string]bool, nres)

	// Kills first: sort.Slice(xs, less) leaves xs clean afterwards — and
	// the call's own result (none) is irrelevant. A field victim
	// (sort.Slice(e.tasks, ...)) kills only that field's taint.
	if fe.spec.Kills != nil {
		for _, victim := range fe.spec.Kills(call) {
			root, field := fe.rootAndField(victim)
			if field != "" {
				fe.clearField(root, field)
			} else {
				fe.setLabels(root, nil)
			}
		}
	}

	// Client override for well-known externals.
	if fe.spec.TransferCall != nil {
		if byResult, handled := fe.spec.TransferCall(call); handled {
			for i := range results {
				if i < len(byResult) {
					for _, src := range byResult[i] {
						results[i] = union(results[i], fe.taintOf(src))
					}
				}
			}
			return results
		}
	}

	// Conversions pass taint through.
	if tv, ok := fe.pass.TypesInfo.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		var all map[string]bool
		for _, arg := range call.Args {
			all = union(all, fe.taintOf(arg))
		}
		for i := range results {
			results[i] = all
		}
		return results
	}

	// Builtins with data flow.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fe.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var all map[string]bool
				for _, arg := range call.Args {
					all = union(all, fe.taintOf(arg))
				}
				if nres > 0 {
					results[0] = all
				}
			case "min", "max":
				var all map[string]bool
				for _, arg := range call.Args {
					all = union(all, fe.taintOf(arg))
				}
				if nres > 0 {
					results[0] = all
				}
			}
			return results
		}
	}

	callees, _ := fe.graph.Resolver.Callees(call)
	applied := false
	for _, callee := range callees {
		if sum, ok := fe.summaryOf(callee); ok {
			fe.applySummary(call, callee, sum, results)
			applied = true
		}
	}
	if !applied && fe.spec.PropagateUnknown {
		var all map[string]bool
		for _, arg := range call.Args {
			all = union(all, fe.taintOf(arg))
		}
		if recv := fe.receiverExpr(call); recv != nil {
			all = union(all, fe.taintOf(recv))
		}
		for i := range results {
			results[i] = all
		}
	}
	return results
}

// summaryOf finds a callee's summary: the in-progress fixpoint for
// functions of this package, the client's fact import otherwise.
func (fe *fnEval) summaryOf(fn *types.Func) (Summary, bool) {
	if fn.Pkg() == fe.pass.Pkg {
		sum, ok := fe.summaries[fn]
		return sum, ok
	}
	if fe.spec.Lookup != nil {
		return fe.spec.Lookup(fn)
	}
	return Summary{}, false
}

// receiverExpr returns the receiver expression of a method call, or nil.
func (fe *fnEval) receiverExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := fe.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}

// applySummary substitutes actual-argument taint into a callee summary at
// a call site.
func (fe *fnEval) applySummary(call *ast.CallExpr, callee *types.Func, sum Summary, results []map[string]bool) {
	argTaint := func(from string) map[string]bool {
		if from == RecvLabel {
			// Whole-receiver provenance: only whole-object taint of the
			// receiver chain applies (field-scoped taint stays put).
			if recv := fe.receiverExpr(call); recv != nil {
				return fe.taintOf(recv)
			}
			return nil
		}
		if f, ok := strings.CutPrefix(from, RecvLabel+"."); ok {
			// Field-scoped receiver provenance: resolve against the
			// matching field of our receiver expression. A chained
			// receiver (s.eng.M reading eng's field f) folds to the
			// chain's own first-level field, keeping the one-level model.
			recv := fe.receiverExpr(call)
			if recv == nil {
				return nil
			}
			root, chainField := fe.rootAndField(recv)
			if root == nil {
				return fe.taintOf(recv)
			}
			if chainField != "" {
				return fe.fieldRead(root, chainField)
			}
			return fe.fieldRead(root, f)
		}
		if i := paramIndex(from); i >= 0 {
			if i < len(call.Args) {
				return fe.taintOf(call.Args[i])
			}
			return nil
		}
		// Intrinsic source inside the callee.
		return map[string]bool{from: true}
	}

	for _, rf := range sum.Results {
		t := argTaint(rf.From)
		if len(t) == 0 {
			continue
		}
		if rf.Result == RecvResult {
			// Callee taints its receiver (rf.Field scopes the write):
			// taint the matching slot of our receiver's root.
			if recv := fe.receiverExpr(call); recv != nil {
				root, chainField := fe.rootAndField(recv)
				field := rf.Field
				if chainField != "" {
					field = chainField
				}
				if field != "" {
					fe.addFieldLabels(root, field, t)
				} else {
					fe.addLabels(root, t)
				}
				fe.recvFlow(root, field, t)
			}
			continue
		}
		if rf.Result >= 0 && rf.Result < len(results) {
			results[rf.Result] = union(results[rf.Result], t)
		}
	}

	for _, sf := range sum.Sinks {
		t := argTaint(sf.From)
		if len(t) == 0 {
			continue
		}
		via := callgraph.DisplayName(callee)
		if sf.Via != "" {
			via += " → " + sf.Via
		}
		pos := call.Pos()
		if i := paramIndex(sf.From); i >= 0 && i < len(call.Args) {
			pos = call.Args[i].Pos()
		}
		for _, l := range sortedLabels(t) {
			if desc := sourceDesc(l); desc != "" {
				if fe.reportFn != nil {
					fe.reportFn(Finding{Pos: pos, Source: desc, Sink: sf.Sink, Via: via})
				}
				continue
			}
			if fe.sum != nil {
				fe.sum.Sinks = append(fe.sum.Sinks, SinkFlow{From: l, Sink: sf.Sink, Via: via})
			}
		}
	}
}

// numResults returns the number of results of a call expression (1
// minimum, so single-value contexts always have a slot).
func (fe *fnEval) numResults(call *ast.CallExpr) int {
	if tv, ok := fe.pass.TypesInfo.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			if tuple.Len() > 1 {
				return tuple.Len()
			}
			return 1
		}
	}
	return 1
}
