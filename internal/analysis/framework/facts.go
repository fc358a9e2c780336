package framework

import (
	"go/types"
	"strings"
)

// This file is the interprocedural layer: per-function (and per-field)
// facts computed bottom-up over the module's package dependency graph.
// An analyzer running on package P records summaries of P's functions
// ("parameter 0 flows into a make size", "result 1 carries a raw
// decoded length") in the pass's FactStore; when a dependent package Q
// is analyzed later, the same store resolves those summaries at Q's
// call sites, so a claim like "this length was bounds-checked before
// it reached the allocator" is checked instead of asserted.
//
// Facts cross package boundaries in process: the driver analyzes
// packages in dependency order sharing one store (see cmd/fudjvet).

// FuncFact is the exported summary of one function.
type FuncFact struct {
	// AllocParams is a bitmask over parameters: bit i set means
	// parameter i flows unchecked into an allocation size (a make call,
	// directly or through a callee with the same fact), so a raw
	// decoded length must not be passed at position i (boundedalloc).
	AllocParams uint64

	// TaintedReturns is a bitmask over results: bit i set means result
	// i derives from a raw decoded length prefix and must be treated as
	// tainted at call sites (boundedalloc).
	TaintedReturns uint64
}

// FieldFact is the exported summary of one struct field.
type FieldFact struct {
	// Tainted reports that a raw decoded length prefix is stored into
	// this field somewhere in the defining package, so reads of the
	// field are tainted everywhere (boundedalloc).
	Tainted bool
}

// FactStore accumulates facts across the packages of one analysis run.
// The zero value is not usable; call NewFactStore.
type FactStore struct {
	funcs  map[string]*FuncFact
	fields map[string]*FieldFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		funcs:  make(map[string]*FuncFact),
		fields: make(map[string]*FieldFact),
	}
}

// ObjectKey renders a stable cross-package identifier for a function or
// field object: "pkgpath.Name" for package-level objects,
// "pkgpath.Recv.Name" for methods and fields. Packages re-imported from
// export data produce the same key as the source-checked original, which
// is what lets facts survive the gc-export-data boundary.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			return path + "." + recvTypeName(sig.Recv().Type()) + "." + o.Name()
		}
		return path + "." + o.Name()
	case *types.Var:
		if o.IsField() {
			// Field keys embed only the field name plus package; the
			// owning struct type is not reachable from the field object,
			// so callers use FieldKey with the type name when they have
			// it. This bare form is the fallback.
			return path + ".." + o.Name()
		}
		// Locals, parameters, and closure variables are not addressable
		// across packages; giving them keys would collide with
		// package-level names.
		if o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return path + "." + o.Name()
	}
	return path + "." + obj.Name()
}

// FieldKey renders the identifier for a named struct type's field.
func FieldKey(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Alias:
		return n.Obj().Name()
	}
	return strings.ReplaceAll(t.String(), " ", "")
}

// Func returns the fact recorded for obj, or nil.
func (s *FactStore) Func(obj types.Object) *FuncFact {
	if key := ObjectKey(obj); key != "" {
		return s.funcs[key]
	}
	return nil
}

// ExportFunc merges a fact for obj into the store through update, which
// receives the (possibly fresh) fact to mutate.
func (s *FactStore) ExportFunc(obj types.Object, update func(*FuncFact)) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	f := s.funcs[key]
	if f == nil {
		f = &FuncFact{}
		s.funcs[key] = f
	}
	update(f)
}

// Field returns the fact recorded under key, or nil.
func (s *FactStore) Field(key string) *FieldFact { return s.fields[key] }

// ExportField merges a field fact under key.
func (s *FactStore) ExportField(key string, update func(*FieldFact)) {
	if key == "" {
		return
	}
	f := s.fields[key]
	if f == nil {
		f = &FieldFact{}
		s.fields[key] = f
	}
	update(f)
}
