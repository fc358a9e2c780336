// Package udfcatch verifies that every call into user-defined join
// code is dominated by a deferred panic guard.
//
// Invariant: a FUDJ library author's SUMMARIZE/DIVIDE/ASSIGN/MATCH/
// VERIFY/DEDUP implementations are untrusted code running inside
// worker tasks. A panic that escapes a partition task kills the whole
// process instead of failing the one query with a structured
// *core.UDFError, defeating retry and speculation. Every call site of
// a user function must therefore execute under a deferred
// core.CatchPanic (or an explicit deferred recover).
//
// The check is interprocedural: a helper that calls user code without
// its own guard is not reported at the call — instead the analyzer
// records a NeedsGuard fact for it (exported across package boundaries
// through the framework's fact store) and checks the helper's callers
// exactly like direct UDF calls. The guard obligation is discharged
// where a deferred guard lexically dominates the risky call, and
// enforced hard at the places a caller's guard cannot reach:
//
//   - closures passed to the cluster's partition drivers (Run,
//     RunValues, Exchange*, Replicate) and function bodies launched
//     with `go` run on other goroutines, so they must install their own
//     guard before any risky call;
//   - a NeedsGuard function value launched with `go` or handed to a
//     partition driver is reported at the hand-off;
//   - a NeedsGuard function exported from a non-internal package is
//     reported at its declaration, because module-external callers are
//     outside the call graph.
//
// Function-typed parameters carry a complementary fact: a callee whose
// parameter is only ever invoked under a deferred guard
// (core.RunStandalone, whose emit callback runs under the runner's own
// guard) exports a guarded-parameter fact, so passing an unguarded
// UDF-calling closure to it is proven safe rather than reported.
//
// Soundness limits (documented in DESIGN.md §9.6): a function value
// that escapes through a struct field, global, channel, or interface
// is not tracked — passing one in such a position is treated as an
// ordinary use needing a dominating guard; calls through non-UDF-named
// interface methods do not consult facts and are assumed clean; a
// caller's guard is assumed to cover synchronous callees (it cannot
// cover goroutines the callee spawns, which is why driver hand-offs
// are checked separately).
//
// The typed translation layer (core/typed.go) is exempt where a method
// that *is* one of the guarded entry points (e.g. wrapped.Verify)
// forwards to the user's function field: the guard obligation attaches
// to its own callers, which this rule checks.
package udfcatch

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fudj/internal/analysis/framework"
)

// Analyzer is the udfcatch rule.
var Analyzer = &framework.Analyzer{
	Name: "udfcatch",
	Doc: "every call to a user-defined join function must be dominated by a deferred " +
		"core.CatchPanic so a UDF panic fails the query, not the worker",
	Run: run,
}

// udfMethods are the core.Join interface methods that execute user
// code. Calls to these on an interface value are the engine's UDF
// entry points.
var udfMethods = map[string]bool{
	"Assign": true, "Match": true, "Verify": true, "Dedup": true,
	"LocalAggregate": true, "GlobalAggregate": true, "Divide": true,
	"LocalJoin": true,
}

// udfFields are user-supplied function-typed struct fields (the typed
// Spec surface) whose invocation runs user code directly.
var udfFields = map[string]bool{
	"Assign": true, "AssignLeft": true, "AssignRight": true,
	"Match": true, "Verify": true, "Dedup": true, "DedupFn": true,
	"LocalAggregate": true, "LocalAggLeft": true, "LocalAggRight": true,
	"GlobalAggregate": true, "GlobalAgg": true,
	"Divide": true, "LocalJoin": true,
}

// partitionDrivers are Cluster methods (and the generic RunValues
// package function) that execute a function argument on worker
// goroutines: a caller's deferred guard cannot catch panics there, so
// closures handed to them must guard internally.
var partitionDrivers = map[string]bool{
	"Run": true, "RunValues": true,
	"Exchange": true, "ExchangeHash": true, "ExchangeMulti": true, "ExchangeRandom": true,
	"Replicate": true,
}

// eventKind classifies one risky occurrence inside a function.
type eventKind int

const (
	// evDirectUDF is a direct call into user code (interface dispatch
	// on a UDF method name, or a Spec function field).
	evDirectUDF eventKind = iota
	// evCall is a call to a resolvable function object or closure whose
	// riskiness depends on its NeedsGuard fact.
	evCall
	// evUse is a non-call use of a function value (argument pass,
	// assignment, return). Risky only if the value NeedsGuard and the
	// receiving parameter is not proven guarded.
	evUse
	// evGo is a function value launched with `go` — a caller guard
	// never applies, so a risky value here is always a finding.
	evGo
	// evDriverPass is a function value handed to a partition driver —
	// it runs on worker goroutines, same rule as evGo.
	evDriverPass
)

// event is one risky occurrence, recorded during the walk and judged
// after the fixpoint.
type event struct {
	kind    eventKind
	pos     token.Pos
	name    string       // display name
	obj     types.Object // callee/used object (nil for literals)
	lit     *ast.FuncLit // used/called literal (nil for objects)
	callee  types.Object // for evUse in argument position: receiving function
	argIdx  int          // parameter index at callee (-1 otherwise)
	guarded bool         // dominated by a deferred guard (crossing-aware)
}

// funcNode is one function declaration or literal under analysis.
type funcNode struct {
	decl   *ast.FuncDecl // nil for literals
	lit    *ast.FuncLit  // nil for declarations
	obj    types.Object  // declared or bound object, if any
	events []event

	// crossing marks literals that run on other goroutines (partition
	// driver arguments, go statement callees): guards outside them do
	// not apply, and unguarded risky events inside them are reported
	// rather than propagated.
	crossing bool
	// crossingWhy says which boundary makes it crossing, for messages.
	crossingWhy string

	needsGuard bool
	exempt     bool

	// fnParams lists the function-typed parameters of a declaration
	// (param index -> object); guardedParams tracks which of them are
	// proven to be invoked only under a guard.
	fnParams      map[int]types.Object
	guardedParams map[int]bool
}

type analysis struct {
	pass  *framework.Pass
	nodes []*funcNode
	// byLit and byObj resolve literals and (bound or declared) function
	// objects to their nodes.
	byLit map[*ast.FuncLit]*funcNode
	byObj map[types.Object]*funcNode
}

func run(pass *framework.Pass) error {
	a := &analysis{
		pass:  pass,
		byLit: make(map[*ast.FuncLit]*funcNode),
		byObj: make(map[types.Object]*funcNode),
	}

	// Collect nodes and their risky events.
	for _, file := range pass.NonTestFiles() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := &funcNode{
				decl:          fd,
				obj:           pass.TypesInfo.ObjectOf(fd.Name),
				exempt:        fd.Recv != nil && udfMethods[fd.Name.Name],
				fnParams:      make(map[int]types.Object),
				guardedParams: make(map[int]bool),
			}
			a.nodes = append(a.nodes, node)
			if node.obj != nil {
				a.byObj[node.obj] = node
			}
			if node.exempt {
				continue // forwarding layer: obligation attaches to callers
			}
			a.collectParams(node)
			a.walk(fd.Body, []*walkFrame{{node: node}})
		}
	}

	// Bottom-up fixpoint: NeedsGuard and guarded-parameter sets are
	// monotone (guardedParams only shrinks, needsGuard only grows), so
	// iteration terminates.
	a.fixpoint()

	// Export facts before reporting so dependent packages resolve this
	// package's helpers either way.
	for _, n := range a.nodes {
		if n.decl == nil || n.obj == nil {
			continue
		}
		node := n
		pass.Facts.ExportFunc(n.obj, func(f *framework.FuncFact) {
			f.NeedsGuard = node.needsGuard
			f.GuardedFnParams = 0
			for i := range node.fnParams {
				if node.guardedParams[i] && i < 64 {
					f.GuardedFnParams |= 1 << uint(i)
				}
			}
		})
	}

	a.report()
	return nil
}

// collectParams records fd's function-typed parameters; they start as
// guarded and lose the property when a use that could invoke them
// unguarded is seen.
func (a *analysis) collectParams(n *funcNode) {
	fn, ok := n.obj.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, ok := p.Type().Underlying().(*types.Signature); ok {
			n.fnParams[i] = p
			n.guardedParams[i] = true
		}
	}
}

// walkFrame is one function on the lexical stack with the earliest
// deferred guard seen in it.
type walkFrame struct {
	node     *funcNode
	guardPos token.Pos
}

func dominated(stack []*walkFrame, pos token.Pos) bool {
	for _, f := range stack {
		if f.guardPos != token.NoPos && f.guardPos < pos {
			return true
		}
	}
	return false
}

// walk traverses one function body in source order, recording risky
// events on the innermost frame's node and recursing into literals
// with crossing-aware stacks.
func (a *analysis) walk(body ast.Node, stack []*walkFrame) {
	top := stack[len(stack)-1]
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// Visited explicitly from the constructs below; a literal
			// reached here is an inline value use (immediate call
			// handled in CallExpr, assignment binding in AssignStmt).
			a.enterLit(node, stack, false, "")
			a.addEvent(top, stack, event{kind: evUse, pos: node.Pos(), name: "function literal", lit: node, argIdx: -1})
			return false
		case *ast.DeferStmt:
			if isGuard(node.Call) {
				if top.guardPos == token.NoPos {
					top.guardPos = node.Pos()
				}
			} else {
				a.visitCall(node.Call, stack)
				return false
			}
		case *ast.GoStmt:
			a.visitGo(node, stack)
			return false
		case *ast.AssignStmt:
			a.visitAssign(node, stack)
			return false
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				a.visitValue(res, stack)
			}
			return false
		case *ast.CallExpr:
			a.visitCall(node, stack)
			return false
		}
		return true
	})
}

// enterLit analyzes a function literal as its own node.
func (a *analysis) enterLit(lit *ast.FuncLit, stack []*walkFrame, crossing bool, why string) *funcNode {
	if n, ok := a.byLit[lit]; ok {
		return n
	}
	n := &funcNode{lit: lit, crossing: crossing, crossingWhy: why}
	a.byLit[lit] = n
	a.nodes = append(a.nodes, n)
	if crossing {
		// Guards in the enclosing frames belong to another goroutine.
		a.walk(lit.Body, []*walkFrame{{node: n}})
	} else {
		a.walk(lit.Body, append(stack, &walkFrame{node: n}))
	}
	return n
}

// visitAssign handles closure bindings (x := func(){...}) and treats
// any other function-valued right-hand side as a value use.
func (a *analysis) visitAssign(as *ast.AssignStmt, stack []*walkFrame) {
	for i, rhs := range as.Rhs {
		if lit, ok := rhs.(*ast.FuncLit); ok {
			n := a.enterLit(lit, stack, false, "")
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil {
						n.obj = obj
						a.byObj[obj] = n
					}
				}
			}
			continue
		}
		a.visitValue(rhs, stack)
	}
}

// visitGo records the goroutine hand-off of node.Call's callee and then
// the call's arguments.
func (a *analysis) visitGo(g *ast.GoStmt, stack []*walkFrame) {
	top := stack[len(stack)-1]
	call := g.Call
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		a.enterLit(fun, stack, true, "a goroutine")
	default:
		if obj := calleeObject(a.pass, call); obj != nil {
			a.addEvent(top, stack, event{kind: evGo, pos: call.Pos(), name: exprName(fun), obj: obj, argIdx: -1})
		}
	}
	for _, arg := range call.Args {
		a.visitValue(arg, stack)
	}
}

// visitCall records a call event for the callee and use/driver-pass
// events for function-valued arguments, then recurses into argument
// expressions.
func (a *analysis) visitCall(call *ast.CallExpr, stack []*walkFrame) {
	top := stack[len(stack)-1]

	// The callee itself.
	if name, ok := udfCallee(a.pass, call); ok {
		a.addEvent(top, stack, event{kind: evDirectUDF, pos: call.Pos(), name: name, argIdx: -1})
	} else if lit, ok := call.Fun.(*ast.FuncLit); ok {
		a.enterLit(lit, stack, false, "")
		a.addEvent(top, stack, event{kind: evCall, pos: call.Pos(), name: "function literal", lit: lit, argIdx: -1})
	} else if obj := calleeObject(a.pass, call); obj != nil {
		a.addEvent(top, stack, event{kind: evCall, pos: call.Pos(), name: exprName(call.Fun), obj: obj, argIdx: -1})
	} else if inner, ok := call.Fun.(*ast.CallExpr); ok {
		a.visitCall(inner, stack)
	}

	driver := isPartitionDriver(a.pass, call)
	callee := calleeObject(a.pass, call)
	for i, arg := range call.Args {
		switch v := arg.(type) {
		case *ast.FuncLit:
			if driver {
				a.enterLit(v, stack, true, "a partition task")
			} else {
				a.enterLit(v, stack, false, "")
				a.addEvent(top, stack, event{kind: evUse, pos: v.Pos(), name: "function literal", lit: v, callee: callee, argIdx: paramIndex(callee, call, i)})
			}
		case *ast.Ident:
			if fn := a.funcValued(v); fn != nil {
				kind := evUse
				if driver {
					kind = evDriverPass
				}
				a.addEvent(top, stack, event{kind: kind, pos: v.Pos(), name: v.Name, obj: fn, callee: callee, argIdx: paramIndex(callee, call, i)})
			}
		case *ast.SelectorExpr:
			// Package-qualified functions and method values passed as
			// arguments (pkg.Helper, recv.Method).
			if fn := a.funcValued(v.Sel); fn != nil {
				kind := evUse
				if driver {
					kind = evDriverPass
				}
				a.addEvent(top, stack, event{kind: kind, pos: v.Pos(), name: exprName(v), obj: fn, callee: callee, argIdx: paramIndex(callee, call, i)})
			} else {
				a.visitValue(arg, stack)
			}
		default:
			a.visitValue(arg, stack)
		}
	}
}

// visitValue records value uses of function objects and literals inside
// an arbitrary expression, and treats nested calls normally.
func (a *analysis) visitValue(e ast.Expr, stack []*walkFrame) {
	top := stack[len(stack)-1]
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			a.visitCall(n, stack)
			return false
		case *ast.FuncLit:
			a.enterLit(n, stack, false, "")
			a.addEvent(top, stack, event{kind: evUse, pos: n.Pos(), name: "function literal", lit: n, argIdx: -1})
			return false
		case *ast.Ident:
			if fn := a.funcValued(n); fn != nil {
				a.addEvent(top, stack, event{kind: evUse, pos: n.Pos(), name: n.Name, obj: fn, argIdx: -1})
			}
		}
		return true
	})
}

// addEvent stamps guard domination and appends the event; it also
// downgrades guarded-parameter claims for uses the guard cannot cover.
func (a *analysis) addEvent(top *walkFrame, stack []*walkFrame, ev event) {
	ev.guarded = dominated(stack, ev.pos)
	top.node.events = append(top.node.events, ev)
}

// funcValued resolves id to a function-shaped object worth tracking: a
// declared function/method, a bound closure variable, or a
// function-typed parameter (tracked for guarded-parameter facts).
func (a *analysis) funcValued(id *ast.Ident) types.Object {
	obj := a.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil
	}
	switch obj.(type) {
	case *types.Func:
		return obj
	case *types.Var:
		if _, ok := obj.Type().Underlying().(*types.Signature); ok {
			return obj
		}
	}
	return nil
}

// fixpoint iterates NeedsGuard and guarded-parameter computation to a
// stable state.
func (a *analysis) fixpoint() {
	for iter := 0; iter <= len(a.nodes)+1; iter++ {
		changed := false
		for _, n := range a.nodes {
			if n.exempt {
				continue
			}
			// needsGuard: any undischarged risky event.
			if !n.needsGuard {
				for _, ev := range n.events {
					if a.riskyUndischarged(n, ev) {
						n.needsGuard = true
						changed = true
						break
					}
				}
			}
			// guardedParams: a parameter loses the property on any use
			// that could invoke it unguarded.
			for i, p := range n.fnParams {
				if !n.guardedParams[i] {
					continue
				}
				if !a.paramStaysGuarded(n, p) {
					n.guardedParams[i] = false
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// riskyUndischarged reports whether ev keeps an obligation open in n.
func (a *analysis) riskyUndischarged(n *funcNode, ev event) bool {
	switch ev.kind {
	case evDirectUDF:
		return !ev.guarded
	case evCall:
		return a.risky(ev) && !ev.guarded
	case evUse:
		if !a.risky(ev) {
			return false
		}
		if ev.guarded {
			return false // synchronous-callee assumption, see package doc
		}
		return !a.calleeParamGuarded(ev.callee, ev.argIdx)
	case evGo, evDriverPass:
		// Judged in report(); a risky hand-off is a finding there, not
		// a propagated obligation (the UDF runs on another goroutine).
		return false
	}
	return false
}

// paramStaysGuarded re-examines every event touching parameter p across
// n and the literals nested in it. Uses are collected on the node the
// event occurred in, so scan all nodes.
func (a *analysis) paramStaysGuarded(n *funcNode, p types.Object) bool {
	for _, node := range a.nodes {
		for _, ev := range node.events {
			if ev.obj != p {
				continue
			}
			switch ev.kind {
			case evGo, evDriverPass:
				return false // hand-off to another goroutine we can't see through
			case evCall:
				if !ev.guarded {
					return false
				}
			case evUse:
				if !ev.guarded && !a.calleeParamGuarded(ev.callee, ev.argIdx) {
					return false
				}
			}
		}
	}
	return true
}

// risky reports whether the event's target may run user code unguarded.
func (a *analysis) risky(ev event) bool {
	if ev.lit != nil {
		if n, ok := a.byLit[ev.lit]; ok {
			return n.needsGuard
		}
		return false
	}
	return a.objNeedsGuard(ev.obj)
}

func (a *analysis) objNeedsGuard(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if n, ok := a.byObj[obj]; ok {
		return n.needsGuard
	}
	if fact := a.pass.Facts.Func(obj); fact != nil {
		return fact.NeedsGuard
	}
	return false
}

// calleeParamGuarded reports whether callee's parameter idx is proven
// to be invoked only under a deferred guard.
func (a *analysis) calleeParamGuarded(callee types.Object, idx int) bool {
	if callee == nil || idx < 0 {
		return false
	}
	if n, ok := a.byObj[callee]; ok {
		return n.guardedParams[idx]
	}
	if fact := a.pass.Facts.Func(callee); fact != nil && idx < 64 {
		return fact.GuardedFnParams&(1<<uint(idx)) != 0
	}
	return false
}

// report emits the findings the fixpoint could not discharge.
func (a *analysis) report() {
	pass := a.pass
	for _, n := range a.nodes {
		if n.exempt {
			continue
		}
		// Inside goroutine-crossing literals, every open obligation is
		// a real finding: no caller guard can reach this code.
		if n.crossing {
			for _, ev := range n.events {
				if !a.riskyUndischargedForReport(n, ev) {
					continue
				}
				pass.Reportf(ev.pos,
					"call to user-defined %s runs inside %s with no deferred core.CatchPanic; "+
						"a UDF panic here kills the worker instead of failing the query",
					ev.name, n.crossingWhy)
			}
		}
		// Risky hand-offs to other goroutines are findings anywhere.
		for _, ev := range n.events {
			if ev.kind != evGo && ev.kind != evDriverPass {
				continue
			}
			if !a.risky(ev) {
				continue
			}
			boundary := "launched with go"
			if ev.kind == evDriverPass {
				boundary = "handed to a partition driver"
			}
			pass.Reportf(ev.pos,
				"%s calls user-defined join code without an internal panic guard and is %s; "+
					"the caller's deferred core.CatchPanic cannot catch panics on worker goroutines",
				ev.name, boundary)
		}
		// A NeedsGuard function whose callers the call graph cannot
		// see: main, or exported outside an internal/ subtree.
		if n.decl != nil && n.needsGuard {
			name := n.decl.Name.Name
			if (name == "main" && pass.Pkg.Name() == "main" && n.decl.Recv == nil) ||
				(n.decl.Name.IsExported() && !internalPackage(pass.Pkg.Path())) {
				pass.Reportf(n.decl.Name.Pos(),
					"%s calls user-defined join code with no deferred core.CatchPanic and can be "+
						"called from outside the module, where the call graph cannot verify a guard; "+
						"install one", name)
			}
		}
	}
}

// riskyUndischargedForReport mirrors riskyUndischarged but is used for
// crossing literals at report time (after the fixpoint settled).
func (a *analysis) riskyUndischargedForReport(n *funcNode, ev event) bool {
	return a.riskyUndischarged(n, ev)
}

// internalPackage reports whether path lies under an internal/ subtree,
// making its exported surface reachable only from inside the module —
// every caller is covered by the analysis run.
func internalPackage(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// calleeObject resolves call's callee to a function or variable object,
// or nil when dynamic (interface method, indexed expression, ...).
func calleeObject(pass *framework.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(fun)
		switch obj.(type) {
		case *types.Func:
			return obj
		case *types.Var:
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return obj
			}
		case *types.TypeName, *types.Builtin, *types.Nil:
			return nil
		}
		return nil
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.ObjectOf(fun.Sel).(*types.Func); ok {
			// Interface methods have no body anywhere; facts are keyed
			// to concrete functions, so a dynamic call resolves to no
			// object unless it is a concrete method.
			if s, ok := pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.MethodVal {
				recv := s.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if _, ok := recv.Underlying().(*types.Interface); ok {
					return nil
				}
			}
			return obj
		}
		// Package-qualified function: cluster.RunValues(...).
		if obj, ok := pass.TypesInfo.ObjectOf(fun.Sel).(*types.Var); ok {
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return obj
			}
		}
	case *ast.IndexExpr:
		// Generic instantiation: f[T](...).
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Func); ok {
				return obj
			}
		}
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			if obj, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}

// paramIndex maps argument position i of call to the callee's parameter
// index, folding variadic tails onto the last parameter. Returns -1
// when the callee is unknown.
func paramIndex(callee types.Object, call *ast.CallExpr, i int) int {
	if callee == nil {
		return -1
	}
	sig, ok := callee.Type().Underlying().(*types.Signature)
	if !ok {
		return -1
	}
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	// Method expressions aside, arguments map 1:1 onto parameters.
	if i < n {
		return i
	}
	if sig.Variadic() {
		return n - 1
	}
	return -1
}

// isPartitionDriver reports whether call hands work to worker
// goroutines: a partition-driver method on a Cluster, or the generic
// RunValues-style package function whose first parameter is a *Cluster.
func isPartitionDriver(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !partitionDrivers[sel.Sel.Name] {
		return false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		return ok && named.Obj().Name() == "Cluster"
	}
	// Package function: first explicit argument is the cluster.
	if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil && sig.Params().Len() > 0 {
			return typeNamed(sig.Params().At(0).Type(), "Cluster")
		}
	}
	return false
}

func typeNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	}
	return "function value"
}

// udfCallee reports whether call invokes user-defined join code,
// returning a human-readable name for it.
func udfCallee(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	switch s.Kind() {
	case types.MethodVal:
		if !udfMethods[sel.Sel.Name] {
			return "", false
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		// Only interface dispatch is a UDF boundary: a concrete method
		// named Match on some unrelated type is not user join code.
		if _, ok := recv.Underlying().(*types.Interface); !ok {
			return "", false
		}
		return sel.Sel.Name, true
	case types.FieldVal:
		if !udfFields[sel.Sel.Name] {
			return "", false
		}
		if _, ok := s.Type().Underlying().(*types.Signature); !ok {
			return "", false
		}
		return sel.Sel.Name, true
	}
	return "", false
}

// isGuard recognizes a deferred panic guard: a call to a function
// named CatchPanic, or a deferred closure containing recover().
func isGuard(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "CatchPanic"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "CatchPanic"
	case *ast.FuncLit:
		found := false
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "recover" {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}
