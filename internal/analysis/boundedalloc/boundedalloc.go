// Package boundedalloc flags allocations sized by a raw decoded length
// prefix.
//
// Invariant: every byte that crosses a simulated node boundary is
// decoded by internal/wire, and a corrupted or adversarial length
// prefix must produce a decode error — never a multi-gigabyte
// allocation. wire.(*Decoder).UvarintCount is the checked entry point:
// it rejects counts the remaining input cannot possibly hold. This
// rule generalizes the fuzz findings that hardened the record, value,
// polygon, and linestring decoders: a `make` whose size derives from a
// raw (*Decoder).Uvarint, binary.Uvarint, or binary.ReadUvarint result
// is a finding; size counts must flow through UvarintCount instead.
//
// The check is interprocedural, through three kinds of facts:
//
//   - AllocParams: parameter i flows unchecked into a make size inside
//     the function (directly or through a callee with the same fact).
//     Passing a raw decoded length at such a position is a finding at
//     the call site.
//   - TaintedReturns: result i derives from a raw decoded length, so a
//     call's result is tainted exactly like a direct Uvarint call.
//   - Field taint: a raw decoded length stored into a struct field
//     (assignment or composite literal) taints every read of that
//     field, across packages.
//
// Taint is cleared by reassignment from a clean value and by an
// explicit bound check: an if statement whose condition compares the
// tainted variable (<, <=, >, >=) is taken as the sanitizer idiom
//
//	if n > maxRecords { return errTooBig }
//
// and clears the variable's taint downstream. min(n, bound) likewise
// yields a clean value when any argument is clean. These are syntactic
// heuristics, not a dataflow proof — the rule aims at the decoder
// idioms the fuzzers actually broke, and the sanitizers keep
// deliberately-checked code quiet (soundness limits: DESIGN.md §9.6).
package boundedalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"fudj/internal/analysis/framework"
)

// Analyzer is the boundedalloc rule.
var Analyzer = &framework.Analyzer{
	Name: "boundedalloc",
	Doc: "allocations sized from a decoded length prefix must flow through " +
		"wire.UvarintCount so corrupt input errors instead of allocating",
	Run: run,
}

// taint is the abstract value tracked per variable: real means "derives
// from a raw decoded length"; params is a bitmask of the enclosing
// function's parameters the value derives from (used to compute
// AllocParams facts, never reported by itself).
type taint struct {
	real   bool
	params uint64
}

func (t taint) none() bool { return !t.real && t.params == 0 }
func (t taint) or(o taint) taint {
	return taint{real: t.real || o.real, params: t.params | o.params}
}

func run(pass *framework.Pass) error {
	var decls []*ast.FuncDecl
	for _, file := range pass.NonTestFiles() {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Intra-package fixpoint: functions and fields in one package can be
	// mutually recursive, so iterate fact computation until stable, then
	// make one reporting pass with the final facts. Facts only grow, so
	// the iteration terminates.
	for iter := 0; iter <= len(decls)+1; iter++ {
		changed := false
		for _, fd := range decls {
			if analyzeFunc(pass, fd, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range decls {
		analyzeFunc(pass, fd, true)
	}
	return nil
}

// analyzeFunc runs the taint pass over one function, exporting facts;
// when report is set it also emits diagnostics. It returns whether any
// exported fact changed (for the fixpoint).
func analyzeFunc(pass *framework.Pass, fd *ast.FuncDecl, report bool) bool {
	fnObj := pass.TypesInfo.ObjectOf(fd.Name)
	tainted := make(map[types.Object]taint)

	// Parameters carry symbolic taint so their flow into make sizes and
	// alloc-param positions becomes this function's AllocParams fact.
	paramBit := make(map[types.Object]uint64)
	if fn, ok := fnObj.(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < 64; i++ {
			p := sig.Params().At(i)
			if !isInteger(p.Type()) {
				continue // only count-like values can be decoded lengths
			}
			paramBit[p] = 1 << uint(i)
			tainted[p] = taint{params: 1 << uint(i)}
		}
	}

	var allocParams, taintedReturns uint64
	changed := false

	// resultTaint resolves the taint of a call's result i through the
	// callee's TaintedReturns fact.
	resultTaint := func(call *ast.CallExpr, i int) taint {
		fact := calleeFact(pass, call)
		if fact != nil && i < 64 && fact.TaintedReturns&(1<<uint(i)) != 0 {
			return taint{real: true}
		}
		return taint{}
	}

	var exprTaint func(e ast.Expr) taint
	exprTaint = func(e ast.Expr) taint {
		var t taint
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				t = t.or(tainted[pass.TypesInfo.ObjectOf(n)])
			case *ast.SelectorExpr:
				if key := fieldKeyOf(pass, n); key != "" {
					if f := pass.Facts.Field(key); f != nil && f.Tainted {
						t = t.or(taint{real: true})
					}
					return false // don't re-taint via the Sel ident
				}
			case *ast.CallExpr:
				if isRawLengthSource(pass, n) {
					t = t.or(taint{real: true})
					return false
				}
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
						switch b.Name() {
						case "min":
							// min(a, b) is bounded by its cleanest
							// argument: the result is raw-tainted only if
							// every argument is. Parameter taint still
							// unions — a bound that is itself a parameter
							// keeps the alloc-param flow visible.
							all := taint{}
							realAll := true
							for _, a := range n.Args {
								at := exprTaint(a)
								all = all.or(at)
								if !at.real {
									realAll = false
								}
							}
							all.real = realAll && len(n.Args) > 0
							t = t.or(all)
							return false
						case "make", "len", "cap":
							// Allocation results and measured lengths of
							// real values are not attacker-chosen.
							return false
						}
					}
				}
				// A call's result is tainted through the callee's
				// TaintedReturns fact; argument taint also flows through
				// conservatively (conversions, helpers the facts can't
				// see — same blanket rule the intra pass always had).
				t = t.or(resultTaint(n, 0))
				return true
			case *ast.FuncLit:
				return false // closure bodies are walked as statements
			}
			return true
		})
		return t
	}

	// setTaint updates one assignment target.
	setTaint := func(lhs ast.Expr, t taint) {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(lhs)
			if obj == nil {
				return
			}
			if t.none() || !isInteger(obj.Type()) {
				delete(tainted, obj)
			} else {
				tainted[obj] = t
			}
		case *ast.SelectorExpr:
			// Storing a raw decoded length into a struct field taints the
			// field for every reader, in this package and its dependents.
			if t.real && isInteger(pass.TypesInfo.TypeOf(lhs)) {
				if key := fieldKeyOf(pass, lhs); key != "" {
					if f := pass.Facts.Field(key); f == nil || !f.Tainted {
						changed = true
					}
					pass.Facts.ExportField(key, func(f *framework.FieldFact) { f.Tainted = true })
				}
			}
		}
	}

	// checkCall reports tainted values passed at alloc-param positions
	// and accumulates this function's own AllocParams through forwarded
	// parameters.
	checkCall := func(call *ast.CallExpr) {
		fact := calleeFact(pass, call)
		if fact == nil || fact.AllocParams == 0 {
			return
		}
		for i, arg := range call.Args {
			if i >= 64 || fact.AllocParams&(1<<uint(i)) == 0 {
				continue
			}
			t := exprTaint(arg)
			allocParams |= t.params
			if t.real && report {
				pass.Reportf(arg.Pos(),
					"%s comes from a raw decoded length prefix and flows into an allocation size inside %s; "+
						"use (*wire.Decoder).UvarintCount so corrupt input errors instead of allocating",
					types.ExprString(arg), calleeName(call))
			}
		}
	}

	// checkComposite taints fields initialized from tainted values.
	checkComposite := func(lit *ast.CompositeLit) {
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok {
			return
		}
		named := namedOf(tv.Type)
		if named == nil {
			return
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			return
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if !isInteger(pass.TypesInfo.TypeOf(kv.Value)) {
				continue
			}
			if t := exprTaint(kv.Value); t.real && named.Obj().Pkg() != nil {
				fk := framework.FieldKey(named.Obj().Pkg().Path(), named.Obj().Name(), key.Name)
				if f := pass.Facts.Field(fk); f == nil || !f.Tainted {
					changed = true
				}
				pass.Facts.ExportField(fk, func(f *framework.FieldFact) { f.Tainted = true })
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				// x := e taints x; x, err := f() distributes the callee's
				// TaintedReturns over the targets.
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Lhs) > 1 && !isRawLengthSource(pass, call) {
					for i, lhs := range n.Lhs {
						setTaint(lhs, resultTaint(call, i))
					}
					return true
				}
				setTaint(n.Lhs[0], exprTaint(n.Rhs[0]))
				for _, lhs := range n.Lhs[1:] {
					setTaint(lhs, taint{})
				}
				return true
			}
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					setTaint(lhs, exprTaint(n.Rhs[i]))
				}
			}
		case *ast.IfStmt:
			// Bound-check sanitizer: comparing a tainted variable clears
			// it downstream — `if n > maxRecords { ... }` is the idiom the
			// invariant asks for when UvarintCount doesn't fit.
			clearBoundChecked(pass, n.Cond, tainted)
		case *ast.CompositeLit:
			checkComposite(n)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) >= 2 {
				for _, sizeArg := range n.Args[1:] {
					t := exprTaint(sizeArg)
					allocParams |= t.params
					if t.real {
						if report {
							pass.Reportf(n.Pos(),
								"make sized by %s, which comes from a raw decoded length prefix; "+
									"use (*wire.Decoder).UvarintCount so corrupt input errors instead of allocating",
								types.ExprString(sizeArg))
						}
						break
					}
				}
				return true
			}
			checkCall(n)
		case *ast.ReturnStmt:
			// `return f(...)` forwarding a multi-value call distributes
			// the callee's result taint across this function's results.
			if len(n.Results) == 1 {
				if call, ok := n.Results[0].(*ast.CallExpr); ok {
					if _, isTuple := pass.TypesInfo.TypeOf(call).(*types.Tuple); isTuple {
						if fn, ok := fnObj.(*types.Func); ok {
							results := fn.Type().(*types.Signature).Results()
							raw := isRawLengthSource(pass, call)
							for i := 0; i < results.Len() && i < 64; i++ {
								if !isInteger(results.At(i).Type()) {
									continue
								}
								if raw && i == 0 {
									// Raw sources yield (length, error);
									// the length is result 0.
									taintedReturns |= 1
								} else if !raw && resultTaint(call, i).real {
									taintedReturns |= 1 << uint(i)
								}
							}
						}
						return true
					}
				}
			}
			for i, res := range n.Results {
				if i < 64 && isInteger(pass.TypesInfo.TypeOf(res)) && exprTaint(res).real {
					taintedReturns |= 1 << uint(i)
				}
			}
		}
		return true
	})

	// Export this function's facts, tracking growth for the fixpoint.
	if fnObj != nil {
		if old := pass.Facts.Func(fnObj); old == nil {
			if allocParams != 0 || taintedReturns != 0 {
				changed = true
			}
		} else if old.AllocParams|allocParams != old.AllocParams ||
			old.TaintedReturns|taintedReturns != old.TaintedReturns {
			changed = true
		}
		pass.Facts.ExportFunc(fnObj, func(f *framework.FuncFact) {
			f.AllocParams |= allocParams
			f.TaintedReturns |= taintedReturns
		})
	}
	return changed
}

// clearBoundChecked removes taint from variables compared with an
// ordering operator anywhere in cond.
func clearBoundChecked(pass *framework.Pass, cond ast.Expr, tainted map[types.Object]taint) {
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, side := range []ast.Expr{bin.X, bin.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
							delete(tainted, obj)
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// calleeFact resolves the called function's fact, if any.
func calleeFact(pass *framework.Pass, call *ast.CallExpr) *framework.FuncFact {
	obj := calleeFunc(pass, call)
	if obj == nil {
		return nil
	}
	return pass.Facts.Func(obj)
}

// calleeFunc resolves call to a declared function or method object.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.ObjectOf(fun).(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.ObjectOf(fun.Sel).(*types.Func); ok {
			return obj
		}
	case *ast.IndexExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "the callee"
}

// fieldKeyOf returns the cross-package fact key for sel when it selects
// a named struct's field, or "".
func fieldKeyOf(pass *framework.Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return framework.FieldKey(named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name)
}

// isInteger reports whether t is an integer-shaped type — the only
// shape a decoded length can have. Restricting taint to integers keeps
// slices and buffers from carrying it transitively.
func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}

// isRawLengthSource reports whether e is a call yielding an unchecked
// decoded length: (*Decoder).Uvarint / Varint, binary.Uvarint, or
// binary.ReadUvarint. UvarintCount is the checked source and is not
// flagged.
func isRawLengthSource(pass *framework.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Uvarint", "Varint":
		// Method on a Decoder, or package function binary.Uvarint.
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			return ok && named.Obj().Name() == "Decoder"
		}
		if pkg, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.ObjectOf(pkg).(*types.PkgName); ok {
				return pn.Imported().Path() == "encoding/binary"
			}
		}
	case "ReadUvarint", "ReadVarint":
		if pkg, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.ObjectOf(pkg).(*types.PkgName); ok {
				return pn.Imported().Path() == "encoding/binary"
			}
		}
	}
	return false
}
