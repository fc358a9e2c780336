package sqlparse

import (
	"strings"
	"testing"

	"fudj/internal/expr"
	"fudj/internal/types"
)

func parseSelect(t *testing.T, sql string) *Select {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", sql, stmt)
	}
	return sel
}

func TestParseCreateJoin(t *testing.T) {
	stmt, err := Parse(`CREATE JOIN text_similarity_join(a: string, b: string, t: double)
		RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins;`)
	if err != nil {
		t.Fatal(err)
	}
	cj, ok := stmt.(*CreateJoin)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if cj.Name != "text_similarity_join" {
		t.Errorf("Name = %q", cj.Name)
	}
	if len(cj.Params) != 3 || cj.Params[2].Name != "t" || cj.Params[2].Type != "double" {
		t.Errorf("Params = %v", cj.Params)
	}
	if cj.Class != "setsimilarity.SetSimilarityJoin" || cj.Library != "flexiblejoins" {
		t.Errorf("Class/Library = %q/%q", cj.Class, cj.Library)
	}
	if !strings.Contains(cj.String(), "CREATE JOIN text_similarity_join") {
		t.Errorf("String = %q", cj.String())
	}
}

func TestParseCreateJoinErrors(t *testing.T) {
	bad := []string{
		`CREATE JOIN j(a: string) RETURNS boolean AS "x" AT lib`,        // one param
		`CREATE JOIN j(a: string, b: string) RETURNS int AS "x" AT lib`, // not boolean
		`CREATE JOIN j(a string) RETURNS boolean AS "x" AT lib`,         // missing colon
		`CREATE JOIN j(a: string, b: string) AS "x" AT lib`,             // missing RETURNS
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): want error", sql)
		}
	}
}

func TestParseDropJoin(t *testing.T) {
	stmt, err := Parse(`DROP JOIN text_similarity_join(a: string, b: string, t: double);`)
	if err != nil {
		t.Fatal(err)
	}
	dj := stmt.(*DropJoin)
	if dj.Name != "text_similarity_join" || len(dj.Params) != 3 {
		t.Errorf("DropJoin = %+v", dj)
	}
	// Signature-free form also allowed.
	stmt, err = Parse(`DROP JOIN spatial_join`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropJoin).Name != "spatial_join" {
		t.Error("short DROP JOIN")
	}
}

func TestParsePaperQuery1(t *testing.T) {
	sel := parseSelect(t, `
		SELECT p.id, p.tags, COUNT(w.id) AS num_fires
		FROM Parks p, Wildfires w
		WHERE st_contains(p.boundary, st_make_point(w.lat, w.lon))
		  AND w.fire_start >= 2022
		GROUP BY p.id, p.tags
		ORDER BY num_fires DESC
		LIMIT 10;`)
	if len(sel.Items) != 3 || sel.Items[2].Alias != "num_fires" {
		t.Errorf("Items = %+v", sel.Items)
	}
	if len(sel.From) != 2 || sel.From[0].Dataset != "parks" || sel.From[0].Alias != "p" {
		t.Errorf("From = %+v", sel.From)
	}
	conj := expr.SplitConjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	call, ok := conj[0].(*expr.Call)
	if !ok || call.Name != "st_contains" {
		t.Errorf("first conjunct = %v", conj[0])
	}
	if len(sel.GroupBy) != 2 {
		t.Errorf("GroupBy = %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("OrderBy = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("Limit = %d", sel.Limit)
	}
}

func TestParseCountStar(t *testing.T) {
	sel := parseSelect(t, `SELECT COUNT(*) FROM Reviews r WHERE r.overall = 5`)
	call := sel.Items[0].Expr.(*expr.Call)
	if call.Name != "count" || len(call.Args) != 1 {
		t.Errorf("COUNT(*) = %v", call)
	}
	if !IsAggregate(call) {
		t.Error("IsAggregate(COUNT(*)) = false")
	}
	if IsAggregate(&expr.Call{Name: "st_contains"}) {
		t.Error("st_contains is not an aggregate")
	}
}

func TestParseFUDJPredicate(t *testing.T) {
	sel := parseSelect(t, `
		SELECT COUNT(1) FROM NYCTaxi n1, NYCTaxi n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		  AND overlapping_interval(n1.ride_interval, n2.ride_interval)`)
	conj := expr.SplitConjuncts(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	call, ok := conj[2].(*expr.Call)
	if !ok || call.Name != "overlapping_interval" || len(call.Args) != 2 {
		t.Errorf("FUDJ predicate = %v", conj[2])
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a + b * 2 >= 10 AND c = 'x' OR d < 0`)
	// OR binds loosest.
	or, ok := sel.Where.(*expr.Binary)
	if !ok || or.Op != expr.OpOr {
		t.Fatalf("top = %v", sel.Where)
	}
	and, ok := or.L.(*expr.Binary)
	if !ok || and.Op != expr.OpAnd {
		t.Fatalf("or.L = %v", or.L)
	}
	ge := and.L.(*expr.Binary)
	if ge.Op != expr.OpGe {
		t.Fatalf("and.L = %v", and.L)
	}
	add := ge.L.(*expr.Binary)
	if add.Op != expr.OpAdd {
		t.Fatalf("+ not parsed first: %v", ge.L)
	}
	if add.R.(*expr.Binary).Op != expr.OpMul {
		t.Error("* should bind tighter than +")
	}
}

func TestParseLiterals(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a = 1 AND b = 2.5 AND c = 'str''ing' AND d = TRUE AND e = NULL`)
	conj := expr.SplitConjuncts(sel.Where)
	lits := make([]types.Value, len(conj))
	for i, c := range conj {
		lits[i] = c.(*expr.Binary).R.(*expr.Literal).V
	}
	if lits[0].Int64() != 1 {
		t.Error("int literal")
	}
	if lits[1].Float64() != 2.5 {
		t.Error("float literal")
	}
	if lits[2].Str() != "str'ing" {
		t.Errorf("string literal with escaped quote = %q", lits[2].Str())
	}
	if !lits[3].Bool() {
		t.Error("bool literal")
	}
	if !lits[4].IsNull() {
		t.Error("null literal")
	}
}

func TestParseNegativeNumber(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a > -5`)
	cmp := sel.Where.(*expr.Binary)
	sub := cmp.R.(*expr.Binary)
	if sub.Op != expr.OpSub {
		t.Fatalf("unary minus = %v", cmp.R)
	}
}

func TestParseStar(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM parks`)
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Errorf("Items = %+v", sel.Items)
	}
	if sel.From[0].Alias != "parks" {
		t.Error("default alias should be the dataset name")
	}
	if sel.Limit != -1 {
		t.Error("absent LIMIT should be -1")
	}
}

func TestParseExplain(t *testing.T) {
	sel := parseSelect(t, `EXPLAIN SELECT * FROM t`)
	if !sel.Explain {
		t.Error("Explain flag")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	sel := parseSelect(t, `SELECT p.id pid FROM parks p`)
	if sel.Items[0].Alias != "pid" {
		t.Errorf("implicit alias = %q", sel.Items[0].Alias)
	}
}

func TestParseComments(t *testing.T) {
	sel := parseSelect(t, `
		-- count everything
		SELECT COUNT(*) /* block
		comment */ FROM t`)
	if len(sel.Items) != 1 {
		t.Error("comment parsing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT abc`,
		`SELECT * FROM t extra garbage here()`,
		`INSERT INTO t VALUES (1)`,
		`SELECT * FROM t WHERE a = 'unterminated`,
		`SELECT * FROM t WHERE /* unterminated`,
		`SELECT * FROM t WHERE a @ b`,
		`SELECT f( FROM t`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): want error", sql)
		}
	}
}

func TestParseCaseInsensitivity(t *testing.T) {
	sel := parseSelect(t, `select P.Id from PARKS p where ST_CONTAINS(p.B, p.C)`)
	c := sel.Items[0].Expr.(*expr.Column)
	// Identifiers are normalized to lowercase.
	if c.Qualifier != "p" || c.Name != "id" {
		t.Errorf("column = %+v", c)
	}
	call := sel.Where.(*expr.Call)
	if call.Name != "st_contains" {
		t.Errorf("call = %q", call.Name)
	}
}

// Property: rendering a parsed statement and reparsing it reaches a
// fixed point — String() output is itself valid SQL with the same
// rendering (round-trip stability).
func TestParseStringRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT DISTINCT p.id INTO saved FROM parks p WHERE p.id > 3`,
		`SELECT p.id, COUNT(*) AS n FROM parks p GROUP BY p.id HAVING COUNT(*) > 2 ORDER BY n`,
		`SELECT p.id, p.tags, COUNT(w.id) AS num_fires FROM parks p, wildfires w
		 WHERE st_contains(p.boundary, st_make_point(w.lat, w.lon)) AND w.fire_start >= 2022
		 GROUP BY p.id, p.tags ORDER BY num_fires DESC LIMIT 10`,
		`SELECT COUNT(*) FROM r a, r b WHERE a.id <> b.id AND sim(a.t, b.t, 0.9)`,
		`SELECT * FROM t WHERE a + b * 2 >= 10 AND c = 'x' OR NOT d < 0`,
		`EXPLAIN SELECT MIN(t.v) FROM t WHERE t.v <> NULL ORDER BY t.v ASC`,
		`CREATE JOIN j(a: geometry, b: geometry, n: int) RETURNS boolean AS "x.Y" AT lib`,
		`DROP JOIN j(a: geometry, b: geometry)`,
		`SELECT café FROM t WHERE a = 'x"y' AND b = 'x\y' AND NOT (NOT c) = d`,
		`SELECT * FROM t WHERE a = 3.0 OR a < 0.00001 OR a > 100000000000000000000000.0`,
	}
	for _, q := range queries {
		first, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		rendered := first.String()
		second, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", rendered, err)
		}
		if second.String() != rendered {
			t.Errorf("not a fixed point:\n  %q\n  %q", rendered, second.String())
		}
	}
}

// Literals print as SQL that reads back as the same value: quotes and
// backslashes inside strings stay as they were, and a float stays a
// float.
func TestParseLiteralRoundTrip(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a = 'x"y' AND b = 'x\y' AND c = 3.0 AND d = 0.00001`)
	again := parseSelect(t, sel.String())
	want, got := expr.SplitConjuncts(sel.Where), expr.SplitConjuncts(again.Where)
	for i := range want {
		w, g := want[i].(*expr.Binary).R.(*expr.Literal).V, got[i].(*expr.Binary).R.(*expr.Literal).V
		if !g.Equal(w) {
			t.Errorf("literal %d: %v read back as %v", i, w, g)
		}
	}
}

func TestSelectString(t *testing.T) {
	sel := parseSelect(t, `SELECT p.id AS x FROM parks p WHERE p.id > 3 ORDER BY p.id DESC LIMIT 5`)
	s := sel.String()
	for _, want := range []string{"SELECT", "AS x", "FROM parks p", "WHERE", "ORDER BY", "DESC", "LIMIT 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
