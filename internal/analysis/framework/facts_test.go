package framework

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestFactStoreRoundTrip exercises the .vetx serialization: non-empty
// facts survive a marshal/merge cycle, empty facts are dropped, and
// foreign payloads are ignored rather than fatal.
func TestFactStoreRoundTrip(t *testing.T) {
	s := NewFactStore()
	s.ExportFuncKey("fudj/internal/core.CanonicalPair", func(f *FuncFact) { f.NeedsGuard = true })
	s.ExportFuncKey("fudj/internal/core.RunStandalone", func(f *FuncFact) { f.GuardedFnParams = 1 << 4 })
	s.ExportFuncKey("fudj/internal/wire.Decoder.Uvarint", func(f *FuncFact) { f.TaintedReturns = 1 })
	s.ExportFuncKey("fudj/internal/core.DefaultMatch", func(f *FuncFact) {}) // stays empty
	s.ExportField(FieldKey("fudj/internal/storage", "frameHeader", "count"), func(f *FieldFact) { f.Tainted = true })

	data, err := s.MarshalFacts()
	if err != nil {
		t.Fatalf("MarshalFacts: %v", err)
	}
	if strings.Contains(string(data), "DefaultMatch") {
		t.Errorf("empty fact serialized:\n%s", data)
	}

	dst := NewFactStore()
	if err := dst.MergeFacts(data); err != nil {
		t.Fatalf("MergeFacts: %v", err)
	}
	if f := dst.FuncByKey("fudj/internal/core.CanonicalPair"); f == nil || !f.NeedsGuard {
		t.Errorf("NeedsGuard fact lost: %+v", f)
	}
	if f := dst.FuncByKey("fudj/internal/core.RunStandalone"); f == nil || f.GuardedFnParams != 1<<4 {
		t.Errorf("GuardedFnParams fact lost: %+v", f)
	}
	if f := dst.FuncByKey("fudj/internal/wire.Decoder.Uvarint"); f == nil || f.TaintedReturns != 1 {
		t.Errorf("TaintedReturns fact lost: %+v", f)
	}
	if f := dst.Field(FieldKey("fudj/internal/storage", "frameHeader", "count")); f == nil || !f.Tainted {
		t.Errorf("field fact lost: %+v", f)
	}

	// Foreign and stale payloads must not poison the store.
	if err := dst.MergeFacts([]byte("fudjvet: no facts\n")); err != nil {
		t.Errorf("non-JSON payload: %v", err)
	}
	if err := dst.MergeFacts([]byte(`{"version": 99, "funcs": {"x.Y": {"needs_guard": true}}}`)); err != nil {
		t.Errorf("future version: %v", err)
	}
	if dst.FuncByKey("x.Y") != nil {
		t.Error("future-version facts merged")
	}
}

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
// functions whose name starts with "Bad" export a NeedsGuard fact, and
// any call to a function carrying that fact is reported. Running it
// over two fixture packages proves a fact produced in package x is
// consumed by a finding in package y.
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
						f.NeedsGuard = true
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
				if f := pass.Facts.Func(obj); f != nil && f.NeedsGuard {
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
