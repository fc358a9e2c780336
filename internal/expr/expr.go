// Package expr defines the expression AST shared by the parser, the
// optimizer, and the runtime, together with compilation of expressions
// into evaluators over records and the registry of built-in scalar
// functions (ST_Contains, similarity_jaccard, interval_overlapping, …).
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"fudj/internal/types"
)

// Expr is a node of the expression tree.
type Expr interface {
	fmt.Stringer
	// Walk visits the node and its children depth-first, stopping when
	// f returns false.
	Walk(f func(Expr) bool)
}

// Column references a field, optionally qualified by a dataset alias.
type Column struct {
	Qualifier string // alias, may be empty
	Name      string
}

// String implements fmt.Stringer.
func (c *Column) String() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Walk implements Expr.
func (c *Column) Walk(f func(Expr) bool) { f(c) }

// QualifiedName returns the schema field name this column resolves to.
func (c *Column) QualifiedName() string { return c.String() }

// Literal is a constant value.
type Literal struct {
	V types.Value
}

// String implements fmt.Stringer. Strings and floats print as SQL
// literals, so the text parses back to the same value: a float keeps
// its decimal point and never takes an exponent.
func (l *Literal) String() string {
	switch l.V.Kind() {
	case types.KindString:
		return Quote(l.V.Str())
	case types.KindFloat64:
		s := strconv.FormatFloat(l.V.Float64(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return l.V.String()
}

// Quote renders s as a SQL string literal: single-quoted, with each
// quote inside doubled, the one escape the lexer reads.
func Quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// Walk implements Expr.
func (l *Literal) Walk(f func(Expr) bool) { f(l) }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String implements fmt.Stringer.
func (op BinOp) String() string { return binOpNames[op] }

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// String implements fmt.Stringer.
func (b *Binary) String() string {
	return "(" + operand(b.L) + " " + b.Op.String() + " " + operand(b.R) + ")"
}

// operand renders a binary operand. NOT binds looser than every binary
// operator but AND and OR, so a negated operand keeps its parentheses.
func operand(e Expr) string {
	if _, ok := e.(*Not); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Walk implements Expr.
func (b *Binary) Walk(f func(Expr) bool) {
	if f(b) {
		b.L.Walk(f)
		b.R.Walk(f)
	}
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// String implements fmt.Stringer.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Walk implements Expr.
func (n *Not) Walk(f func(Expr) bool) {
	if f(n) {
		n.E.Walk(f)
	}
}

// Call invokes a named function. FUDJ predicates appear in the tree as
// Calls whose names resolve to installed joins; the optimizer detects
// them by signature exactly as §VI-C describes.
type Call struct {
	Name string
	Args []Expr
}

// String implements fmt.Stringer.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Walk implements Expr.
func (c *Call) Walk(f func(Expr) bool) {
	if f(c) {
		for _, a := range c.Args {
			a.Walk(f)
		}
	}
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list — the
// first step of predicate pushdown.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from a conjunct list; nil for an
// empty list.
func JoinConjuncts(cs []Expr) Expr {
	if len(cs) == 0 {
		return nil
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = &Binary{Op: OpAnd, L: out, R: c}
	}
	return out
}

// Columns returns the distinct column references in e, in first-seen
// order.
func Columns(e Expr) []*Column {
	var out []*Column
	seen := map[string]bool{}
	e.Walk(func(n Expr) bool {
		if c, ok := n.(*Column); ok && !seen[c.QualifiedName()] {
			seen[c.QualifiedName()] = true
			out = append(out, c)
		}
		return true
	})
	return out
}

// Qualifiers returns the set of dataset aliases referenced by e.
func Qualifiers(e Expr) map[string]bool {
	out := map[string]bool{}
	for _, c := range Columns(e) {
		if c.Qualifier != "" {
			out[c.Qualifier] = true
		}
	}
	return out
}
