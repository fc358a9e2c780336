package framework

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestObjectKeyLocals verifies that only package-level objects get
// cross-package keys: parameters and locals must not collide with
// same-named package functions.
func TestObjectKeyLocals(t *testing.T) {
	pkgs, err := LoadFixtureDirs("testdata/src", "x")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	pkg := pkgs[0]
	keys := make(map[string]string) // object description -> key
	for id, obj := range pkg.Info.Defs {
		if obj == nil {
			continue
		}
		keys[id.Name+"/"+obj.String()] = ObjectKey(obj)
	}
	var sawFunc, sawMethod bool
	for desc, key := range keys {
		switch {
		case strings.HasPrefix(desc, "Bad/func x.Bad"):
			if key != "x.Bad" {
				t.Errorf("package func key = %q, want x.Bad", key)
			}
			sawFunc = true
		case strings.HasPrefix(desc, "Note/func (x.T).Note"):
			if key != "x.T.Note" {
				t.Errorf("method key = %q, want x.T.Note", key)
			}
			sawMethod = true
		case strings.HasPrefix(desc, "shadow/var shadow"):
			if key != "" {
				t.Errorf("local var got key %q, want none", key)
			}
		}
	}
	if !sawFunc || !sawMethod {
		t.Fatalf("fixture objects not found (func=%v method=%v); keys: %v", sawFunc, sawMethod, keys)
	}
}

// markAnalyzer is a toy interprocedural analyzer: package-level
// functions whose name starts with "Bad" export boundedalloc's fact
// shape (parameter 0 flows into an allocation size), and any call to a
// function carrying that fact is reported. Running it over two fixture
// packages proves a fact produced in package x is consumed by a
// finding in package y.
var markAnalyzer = &Analyzer{
	Name: "mark",
	Doc:  "test analyzer: flags calls to functions named Bad*, across packages",
	Run: func(pass *Pass) error {
		for _, file := range pass.NonTestFiles() {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				if strings.HasPrefix(fd.Name.Name, "Bad") {
					pass.Facts.ExportFunc(pass.TypesInfo.ObjectOf(fd.Name), func(f *FuncFact) {
						f.AllocParams |= 1
					})
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var obj types.Object
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					obj = pass.TypesInfo.ObjectOf(fun)
				case *ast.SelectorExpr:
					obj = pass.TypesInfo.ObjectOf(fun.Sel)
				}
				if f := pass.Facts.Func(obj); f != nil && f.AllocParams&1 != 0 {
					pass.Reportf(call.Pos(), "call to flagged function %s", obj.Name())
				}
				return true
			})
		}
		return nil
	},
}

// TestMultiPackageFixtures runs the toy analyzer over testdata/src/x
// and testdata/src/y, where y imports x by directory name: the fact
// exported while analyzing x must resolve at y's call site.
func TestMultiPackageFixtures(t *testing.T) {
	RunTest(t, "testdata", markAnalyzer, "x", "y")
}
