package expr

import (
	"fmt"
	"strings"

	"fudj/internal/types"
)

// Evaluator computes an expression over one record.
type Evaluator func(rec types.Record) (types.Value, error)

// Compile resolves e against a schema and returns an evaluator. Column
// references resolve first by exact qualified name, then by unique
// unqualified suffix; ambiguity or absence is a compile-time error, as
// in any SQL binder.
func Compile(e Expr, schema *types.Schema) (Evaluator, error) {
	switch n := e.(type) {
	case *Literal:
		v := n.V
		return func(types.Record) (types.Value, error) { return v, nil }, nil

	case *Column:
		idx, err := ResolveColumn(n, schema)
		if err != nil {
			return nil, err
		}
		return func(rec types.Record) (types.Value, error) { return rec[idx], nil }, nil

	case *Not:
		inner, err := Compile(n.E, schema)
		if err != nil {
			return nil, err
		}
		return func(rec types.Record) (types.Value, error) {
			v, err := inner(rec)
			if err != nil {
				return types.Null, err
			}
			if v.Kind() != types.KindBool {
				return types.Null, fmt.Errorf("expr: NOT of %v", v.Kind())
			}
			return types.NewBool(!v.Bool()), nil
		}, nil

	case *Binary:
		l, err := Compile(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, schema)
		if err != nil {
			return nil, err
		}
		return compileBinary(n.Op, l, r)

	case *Call:
		fn, ok := LookupBuiltin(n.Name)
		if !ok {
			return nil, fmt.Errorf("expr: unknown function %q", n.Name)
		}
		args := make([]Evaluator, len(n.Args))
		for i, a := range n.Args {
			ev, err := Compile(a, schema)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		name := n.Name
		return func(rec types.Record) (types.Value, error) {
			vals := make([]types.Value, len(args))
			for i, a := range args {
				v, err := a(rec)
				if err != nil {
					return types.Null, err
				}
				vals[i] = v
			}
			out, err := fn(vals)
			if err != nil {
				return types.Null, fmt.Errorf("expr: %s: %w", name, err)
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

// ResolveColumn returns the schema index a column reference binds to.
func ResolveColumn(c *Column, schema *types.Schema) (int, error) {
	if c.Qualifier != "" {
		if idx := schema.Index(c.QualifiedName()); idx >= 0 {
			return idx, nil
		}
		return 0, fmt.Errorf("expr: no column %q in %v", c.QualifiedName(), schema)
	}
	// Unqualified: exact name first, then unique ".name" suffix.
	if idx := schema.Index(c.Name); idx >= 0 {
		return idx, nil
	}
	found := -1
	for i, f := range schema.Fields {
		if strings.HasSuffix(f.Name, "."+c.Name) {
			if found >= 0 {
				return 0, fmt.Errorf("expr: ambiguous column %q in %v", c.Name, schema)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("expr: no column %q in %v", c.Name, schema)
	}
	return found, nil
}

func compileBinary(op BinOp, l, r Evaluator) (Evaluator, error) {
	switch op {
	case OpAnd, OpOr:
		isAnd := op == OpAnd
		return func(rec types.Record) (types.Value, error) {
			lv, err := l(rec)
			if err != nil {
				return types.Null, err
			}
			if lv.Kind() != types.KindBool {
				return types.Null, fmt.Errorf("expr: %v operand is %v", op, lv.Kind())
			}
			// Short circuit.
			if isAnd && !lv.Bool() {
				return types.NewBool(false), nil
			}
			if !isAnd && lv.Bool() {
				return types.NewBool(true), nil
			}
			rv, err := r(rec)
			if err != nil {
				return types.Null, err
			}
			if rv.Kind() != types.KindBool {
				return types.Null, fmt.Errorf("expr: %v operand is %v", op, rv.Kind())
			}
			return types.NewBool(rv.Bool()), nil
		}, nil

	case OpEq, OpNe:
		wantEq := op == OpEq
		return func(rec types.Record) (types.Value, error) {
			lv, err := l(rec)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(rec)
			if err != nil {
				return types.Null, err
			}
			eq := ValuesEqual(lv, rv)
			return types.NewBool(eq == wantEq), nil
		}, nil

	case OpLt, OpLe, OpGt, OpGe:
		return func(rec types.Record) (types.Value, error) {
			lv, err := l(rec)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(rec)
			if err != nil {
				return types.Null, err
			}
			c, err := compareValues(lv, rv)
			if err != nil {
				return types.Null, err
			}
			var out bool
			switch op {
			case OpLt:
				out = c < 0
			case OpLe:
				out = c <= 0
			case OpGt:
				out = c > 0
			case OpGe:
				out = c >= 0
			}
			return types.NewBool(out), nil
		}, nil

	case OpAdd, OpSub, OpMul, OpDiv:
		return func(rec types.Record) (types.Value, error) {
			lv, err := l(rec)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(rec)
			if err != nil {
				return types.Null, err
			}
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported operator %v", op)
}

// ValuesEqual is the = operator's equality: it compares with numeric
// widening, so 1 = 1.0 holds as SQL users expect.
func ValuesEqual(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		return aok && bok && af == bf
	}
	return a.Equal(b)
}

// EqualHash hashes v so that ValuesEqual values hash alike: a numeric
// value by its float64 value, with -0.0 folded to 0.0.
func EqualHash(v types.Value) uint64 {
	f, ok := v.AsFloat()
	if !ok {
		return v.Hash()
	}
	if f == 0 {
		f = 0 // -0.0 == 0.0
	}
	return types.NewFloat64(f).Hash()
}

func compareValues(a, b types.Value) (int, error) {
	if a.Kind() != b.Kind() {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok && bok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("expr: cannot compare %v with %v", a.Kind(), b.Kind())
	}
	return a.Compare(b), nil
}

func arith(op BinOp, a, b types.Value) (types.Value, error) {
	if a.Kind() == types.KindInt64 && b.Kind() == types.KindInt64 {
		x, y := a.Int64(), b.Int64()
		switch op {
		case OpAdd:
			return types.NewInt64(x + y), nil
		case OpSub:
			return types.NewInt64(x - y), nil
		case OpMul:
			return types.NewInt64(x * y), nil
		case OpDiv:
			if y == 0 {
				return types.Null, fmt.Errorf("expr: integer division by zero")
			}
			return types.NewInt64(x / y), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return types.Null, fmt.Errorf("expr: arithmetic on %v and %v", a.Kind(), b.Kind())
	}
	switch op {
	case OpAdd:
		return types.NewFloat64(af + bf), nil
	case OpSub:
		return types.NewFloat64(af - bf), nil
	case OpMul:
		return types.NewFloat64(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return types.Null, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat64(af / bf), nil
	}
	return types.Null, fmt.Errorf("expr: unsupported arithmetic %v", op)
}
