package sqlparse

import (
	"fmt"
	"strings"

	"fudj/internal/expr"
)

// Statement is any parsed SQL statement.
type Statement interface {
	fmt.Stringer
	stmt()
}

// ParamDecl declares one parameter in a CREATE JOIN signature.
type ParamDecl struct {
	Name string
	Type string // declared type name, e.g. "string", "double", "geometry"
}

// CreateJoin is the paper's novel DDL statement (§VI-A):
//
//	CREATE JOIN name(a: string, b: string, t: double) RETURNS boolean
//	AS "pkg.Class" AT library;
type CreateJoin struct {
	Name    string
	Params  []ParamDecl
	Returns string
	Class   string
	Library string
}

func (*CreateJoin) stmt() {}

// String implements fmt.Stringer.
func (c *CreateJoin) String() string {
	params := make([]string, len(c.Params))
	for i, p := range c.Params {
		params[i] = p.Name + ": " + p.Type
	}
	return fmt.Sprintf("CREATE JOIN %s(%s) RETURNS %s AS %s AT %s",
		c.Name, strings.Join(params, ", "), c.Returns, expr.Quote(c.Class), c.Library)
}

// DropJoin removes an installed join.
type DropJoin struct {
	Name   string
	Params []ParamDecl
}

func (*DropJoin) stmt() {}

// String implements fmt.Stringer.
func (d *DropJoin) String() string {
	params := make([]string, len(d.Params))
	for i, p := range d.Params {
		params[i] = p.Name + ": " + p.Type
	}
	return fmt.Sprintf("DROP JOIN %s(%s)", d.Name, strings.Join(params, ", "))
}

// TableRef is one dataset in a FROM clause.
type TableRef struct {
	Dataset string
	Alias   string // defaults to the dataset name
}

// SelectItem is one projection. Star is SELECT *; otherwise Expr with
// an optional output alias. Aggregate calls (COUNT/SUM/AVG/MIN/MAX)
// appear as expr.Call nodes with those names.
type SelectItem struct {
	Star  bool
	Expr  expr.Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// Select is a parsed query block.
type Select struct {
	Explain  bool
	Analyze  bool // EXPLAIN ANALYZE: execute and render measured spans
	Distinct bool
	Into     string // SELECT ... INTO dataset: materialize the result
	Items    []SelectItem
	From     []TableRef
	Where    expr.Expr // nil when absent
	GroupBy  []expr.Expr
	Having   expr.Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*Select) stmt() {}

// String implements fmt.Stringer.
func (s *Select) String() string {
	var sb strings.Builder
	if s.Explain {
		sb.WriteString("EXPLAIN ")
		if s.Analyze {
			sb.WriteString("ANALYZE ")
		}
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.Into != "" {
		sb.WriteString(" INTO " + s.Into)
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Dataset)
		if t.Alias != t.Dataset {
			sb.WriteString(" " + t.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// AggregateNames are the aggregate function names the planner pulls out
// of projections.
var AggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether a call expression is an aggregate.
func IsAggregate(e expr.Expr) bool {
	c, ok := e.(*expr.Call)
	return ok && AggregateNames[c.Name]
}
