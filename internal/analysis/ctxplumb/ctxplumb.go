// Package ctxplumb enforces context plumbing in the execution
// packages: an exported function that spawns goroutines (directly or
// through a same-package callee) or drives partition tasks must accept
// and actually use a context.Context.
//
// Invariant: query cancellation and deadlines abort in-flight
// partition tasks at their next checkpoint. That guarantee only holds
// if every entry point that fans work out can observe the context. A
// method whose receiver carries a context.Context field (the cluster
// attaches the query context with SetContext) satisfies the invariant
// structurally and is exempt.
package ctxplumb

import (
	"go/ast"
	"go/types"

	"fudj/internal/analysis/framework"
)

// Analyzer is the ctxplumb rule, restricted to the packages whose
// exported surface must plumb contexts.
var Analyzer = &framework.Analyzer{
	Name: "ctxplumb",
	Doc: "exported functions that spawn goroutines or drive partition tasks must " +
		"accept and use a context.Context so cancellation reaches them",
	Packages: []string{
		"fudj/internal/cluster",
		"fudj/internal/engine",
		"fudj/internal/sched",
		"fudj/internal/serve",
	},
	Run: run,
}

// partitionDrivers are cluster methods that fan a task out over every
// partition; calling one is driving distributed work.
var partitionDrivers = map[string]bool{
	"Run": true, "RunValues": true,
	"Exchange": true, "ExchangeHash": true, "ExchangeMulti": true, "ExchangeRandom": true,
	"Replicate": true,
}

func run(pass *framework.Pass) error {
	// First pass: which functions in this package contain a go
	// statement, keyed by their object (so calls resolve precisely).
	spawns := make(map[types.Object]bool)
	var decls []*ast.FuncDecl
	for _, file := range pass.NonTestFiles() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if containsGo(fd.Body) {
				spawns[pass.TypesInfo.ObjectOf(fd.Name)] = true
			}
		}
	}

	for _, fd := range decls {
		if !fd.Name.IsExported() {
			continue
		}
		if carriesContext(pass, fd) {
			continue
		}
		reason := spawnReason(pass, fd, spawns)
		if reason == "" {
			continue
		}
		param := contextParam(pass, fd)
		if param == nil {
			pass.Reportf(fd.Name.Pos(),
				"exported %s %s but has no context.Context parameter; "+
					"cancellation cannot reach the work it starts", fd.Name.Name, reason)
			continue
		}
		if param.Name() == "" || param.Name() == "_" || !paramUsed(pass, fd.Body, param) {
			pass.Reportf(fd.Name.Pos(),
				"exported %s %s but never forwards its context.Context parameter; "+
					"cancellation cannot reach the work it starts", fd.Name.Name, reason)
		}
	}
	return nil
}

// spawnReason explains why fd is subject to the rule, or "" if it is
// not: it spawns goroutines (directly or via a same-package call), or
// it drives partition tasks through the cluster.
func spawnReason(pass *framework.Pass, fd *ast.FuncDecl, spawns map[types.Object]bool) string {
	if containsGo(fd.Body) {
		return "spawns goroutines"
	}
	reason := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if spawns[pass.TypesInfo.ObjectOf(fun)] {
				reason = "spawns goroutines (via " + fun.Name + ")"
			}
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.ObjectOf(fun.Sel); obj != nil && spawns[obj] {
				reason = "spawns goroutines (via " + fun.Sel.Name + ")"
				return false
			}
			if partitionDrivers[fun.Sel.Name] && isClusterReceiver(pass, fun) {
				reason = "drives partition tasks (" + fun.Sel.Name + ")"
			}
		}
		return true
	})
	return reason
}

func containsGo(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// carriesContext reports whether fd can observe a context through its
// receiver or a parameter whose struct type holds a context.Context
// field — the SetContext pattern. Generic functions taking *Cluster as
// their first parameter (methods cannot be generic) fall under the
// parameter case.
func carriesContext(pass *framework.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil && len(fd.Recv.List) > 0 &&
		structHoldsContext(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)) {
		return true
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if structHoldsContext(pass.TypesInfo.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

// structHoldsContext reports whether t (possibly behind a pointer) is
// a struct with a context.Context field.
func structHoldsContext(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// contextParam returns fd's context.Context parameter, if any.
func contextParam(pass *framework.Pass, fd *ast.FuncDecl) *types.Var {
	obj, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return sig.Params().At(i)
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// paramUsed reports whether param is referenced anywhere in body.
func paramUsed(pass *framework.Pass, body *ast.BlockStmt, param *types.Var) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == param {
			used = true
		}
		return !used
	})
	return used
}

// isClusterReceiver reports whether sel's receiver is a cluster.Cluster
// (by type name, so fixtures can model it).
func isClusterReceiver(pass *framework.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Cluster"
}
