// Package hotatomic forbids shared atomic counters in the join
// operators' per-candidate loops.
//
// Invariant: what a partition task counts inside its O(|l|·|r|) loops
// it counts in plain, task-owned fields, folded into the query's
// JoinStats once after the phase (engine.taskCounts). A sync/atomic Add
// on a value tasks share, executed per candidate pair, is a contended
// cache line bouncing between every partition's core: on the interval
// theta join two such Adds cost more than the VERIFY call they counted.
// FUDJ's pair loop is core.JoinBuckets, a plain function, counted in
// engine.combineTask.pair, a method with no loop; the built-in
// operators' loops are engine task closures. The rule is lexical: an
// atomic Add on a package-level target, in any function, is a finding
// at any loop depth; so is one inside a function literal, on a target
// declared outside it, within two or more nested for statements of the
// literal. An atomic declared inside the literal, or an Add on a
// captured value in a single loop (once per record, not per pair), is
// not.
package hotatomic

import (
	"go/ast"
	"go/types"
	"strings"

	"fudj/internal/analysis/framework"
)

// Analyzer is the hotatomic rule, restricted to the packages holding the
// join operators' candidate loops.
var Analyzer = &framework.Analyzer{
	Name: "hotatomic",
	Doc: "forbids sync/atomic Add on a package-level value, or on a captured value inside nested loops " +
		"of a task closure; count in task-local fields and fold once per task",
	Packages: []string{"fudj/internal/core", "fudj/internal/engine"},
	Run:      run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.NonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				checkLiteral(pass, n)
			case *ast.CallExpr:
				if target := atomicAddTarget(pass, n); target != nil && packageLevel(pass, target) {
					pass.Reportf(n.Pos(), "atomic Add on package-level %s, which every task shares: "+
						"count in a task-local field and fold once when the task returns", target.Name)
				}
			}
			return true // nested literals are visited as literals of their own
		})
	}
	return nil
}

// checkLiteral walks one function literal's own statements (not those
// of literals nested in it), tracking how many for statements enclose
// each call.
func checkLiteral(pass *framework.Pass, lit *ast.FuncLit) {
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				walk(c.Body, depth+1)
				return false
			case *ast.RangeStmt:
				walk(c.Body, depth+1)
				return false
			case *ast.CallExpr:
				if depth < 2 {
					return true
				}
				if target := atomicAddTarget(pass, c); target != nil && !packageLevel(pass, target) && declaredOutside(pass, target, lit) {
					pass.Reportf(c.Pos(),
						"atomic Add on captured %s inside %d nested loops of a task closure: "+
							"count in a task-local field and fold once when the task returns", target.Name, depth)
				}
			}
			return true
		})
	}
	walk(lit.Body, 0)
}

// atomicAddTarget returns the root identifier of the value a
// sync/atomic Add call updates — x in x.f.Add(1) or atomic.AddInt64(&x.f, 1)
// — or nil when call is not such an Add.
func atomicAddTarget(pass *framework.Pass, call *ast.CallExpr) *ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !strings.HasPrefix(fn.Name(), "Add") {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return rootIdent(sel.X) // the Add method of atomic.Int64 and friends
	}
	if len(call.Args) == 0 {
		return nil
	}
	return rootIdent(call.Args[0]) // atomic.AddInt64(&x, n)
}

// rootIdent strips selectors, indexing, dereferences and address-of
// down to the identifier an operand starts from.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func declaredOutside(pass *framework.Pass, id *ast.Ident, lit *ast.FuncLit) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End())
}

// packageLevel reports whether id names a package-level variable, of
// this package or, through a package name, of another.
func packageLevel(pass *framework.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	_, other := obj.(*types.PkgName)
	return other || obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
