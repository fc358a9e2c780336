package expr

import (
	"strings"
	"testing"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "p.id", Kind: types.KindInt64},
		types.Field{Name: "p.name", Kind: types.KindString},
		types.Field{Name: "p.score", Kind: types.KindFloat64},
		types.Field{Name: "w.id", Kind: types.KindInt64},
	)
}

func testRecord() types.Record {
	return types.Record{
		types.NewInt64(7),
		types.NewString("yosemite"),
		types.NewFloat64(2.5),
		types.NewInt64(9),
	}
}

func eval(t *testing.T, e Expr) types.Value {
	t.Helper()
	ev, err := Compile(e, testSchema())
	if err != nil {
		t.Fatalf("compile %v: %v", e, err)
	}
	v, err := ev(testRecord())
	if err != nil {
		t.Fatalf("eval %v: %v", e, err)
	}
	return v
}

func col(q, n string) *Column         { return &Column{Qualifier: q, Name: n} }
func lit(v types.Value) *Literal      { return &Literal{V: v} }
func bin(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

func TestColumnResolution(t *testing.T) {
	if got := eval(t, col("p", "id")); got.Int64() != 7 {
		t.Errorf("p.id = %v", got)
	}
	// Unqualified unique suffix resolves.
	if got := eval(t, col("", "name")); got.Str() != "yosemite" {
		t.Errorf("name = %v", got)
	}
	// Ambiguous unqualified fails at compile time.
	if _, err := Compile(col("", "id"), testSchema()); err == nil {
		t.Error("ambiguous column should fail to compile")
	}
	if _, err := Compile(col("x", "id"), testSchema()); err == nil {
		t.Error("unknown qualifier should fail to compile")
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{bin(OpEq, col("p", "id"), lit(types.NewInt64(7))), true},
		{bin(OpNe, col("p", "id"), col("w", "id")), true},
		{bin(OpLt, col("p", "id"), col("w", "id")), true},
		{bin(OpGe, col("p", "score"), lit(types.NewFloat64(2.5))), true},
		{bin(OpGt, col("p", "score"), lit(types.NewInt64(2))), true}, // numeric widening
		{bin(OpEq, lit(types.NewInt64(1)), lit(types.NewFloat64(1))), true},
		{bin(OpAnd, bin(OpEq, col("p", "id"), lit(types.NewInt64(7))), bin(OpEq, col("w", "id"), lit(types.NewInt64(9)))), true},
		{bin(OpOr, bin(OpEq, col("p", "id"), lit(types.NewInt64(0))), bin(OpEq, col("w", "id"), lit(types.NewInt64(9)))), true},
		{&Not{E: bin(OpEq, col("p", "id"), lit(types.NewInt64(0)))}, true},
		{bin(OpEq, col("p", "name"), lit(types.NewString("zion"))), false},
	}
	for _, c := range cases {
		if got := eval(t, c.e); got.Bool() != c.want {
			t.Errorf("%v = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side divides by zero; AND must not evaluate it.
	bad := bin(OpEq, bin(OpDiv, lit(types.NewInt64(1)), lit(types.NewInt64(0))), lit(types.NewInt64(1)))
	e := bin(OpAnd, lit(types.NewBool(false)), bad)
	if got := eval(t, e); got.Bool() {
		t.Error("AND false short-circuit failed")
	}
	e2 := bin(OpOr, lit(types.NewBool(true)), bad)
	if got := eval(t, e2); !got.Bool() {
		t.Error("OR true short-circuit failed")
	}
}

func TestArithmetic(t *testing.T) {
	if got := eval(t, bin(OpAdd, lit(types.NewInt64(2)), lit(types.NewInt64(3)))); got.Int64() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := eval(t, bin(OpMul, lit(types.NewFloat64(2)), lit(types.NewInt64(3)))); got.Float64() != 6 {
		t.Errorf("2.0*3 = %v", got)
	}
	ev, err := Compile(bin(OpDiv, lit(types.NewInt64(1)), lit(types.NewInt64(0))), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev(testRecord()); err == nil {
		t.Error("division by zero should error at eval")
	}
}

func TestSplitAndJoinConjuncts(t *testing.T) {
	a := bin(OpEq, col("p", "id"), lit(types.NewInt64(1)))
	b := bin(OpGt, col("p", "score"), lit(types.NewInt64(0)))
	c := bin(OpNe, col("w", "id"), lit(types.NewInt64(2)))
	tree := bin(OpAnd, bin(OpAnd, a, b), c)
	parts := SplitConjuncts(tree)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	rebuilt := JoinConjuncts(parts)
	if rebuilt.String() != tree.String() {
		t.Errorf("JoinConjuncts = %v, want %v", rebuilt, tree)
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil) should be nil")
	}
}

func TestColumnsAndQualifiers(t *testing.T) {
	e := bin(OpAnd,
		bin(OpEq, col("p", "id"), col("w", "id")),
		bin(OpGt, col("p", "score"), lit(types.NewInt64(0))))
	cols := Columns(e)
	if len(cols) != 3 {
		t.Fatalf("Columns = %v", cols)
	}
	q := Qualifiers(e)
	if !q["p"] || !q["w"] || len(q) != 2 {
		t.Errorf("Qualifiers = %v", q)
	}
}

func TestCallBuiltin(t *testing.T) {
	e := &Call{Name: "abs", Args: []Expr{lit(types.NewInt64(-4))}}
	if got := eval(t, e); got.Int64() != 4 {
		t.Errorf("abs(-4) = %v", got)
	}
	if _, err := Compile(&Call{Name: "no_such_fn"}, testSchema()); err == nil {
		t.Error("unknown function should fail to compile")
	}
	if _, ok := LookupBuiltin("st_contains"); !ok {
		t.Error("LookupBuiltin(st_contains) not found")
	}
	if _, ok := LookupBuiltin("nope"); ok {
		t.Error("LookupBuiltin(nope) found")
	}
}

func TestSpatialBuiltins(t *testing.T) {
	park := types.NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}))
	in := types.NewPoint(geo.Point{X: 5, Y: 5})
	out := types.NewPoint(geo.Point{X: 50, Y: 50})

	v, err := stContains([]types.Value{park, in})
	if err != nil || !v.Bool() {
		t.Errorf("st_contains(park, in) = %v, %v", v, err)
	}
	v, err = stContains([]types.Value{park, out})
	if err != nil || v.Bool() {
		t.Errorf("st_contains(park, out) = %v, %v", v, err)
	}
	v, err = stMakePoint([]types.Value{types.NewFloat64(1), types.NewInt64(2)})
	if err != nil || v.Point() != (geo.Point{X: 1, Y: 2}) {
		t.Errorf("st_make_point = %v, %v", v, err)
	}
	v, err = stDistance([]types.Value{in, out})
	if err != nil || v.Float64() <= 0 {
		t.Errorf("st_distance = %v, %v", v, err)
	}
	v, err = stIntersects([]types.Value{park, types.NewRect(geo.Rect{MinX: 8, MinY: 8, MaxX: 20, MaxY: 20})})
	if err != nil || !v.Bool() {
		t.Errorf("st_intersects = %v, %v", v, err)
	}
	if _, err = stContains([]types.Value{types.NewInt64(1), in}); err == nil {
		t.Error("st_contains on int should error")
	}
}

func TestValuesIntersectDispatch(t *testing.T) {
	poly := types.NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}}))
	pIn := types.NewPoint(geo.Point{X: 2, Y: 2})
	pOut := types.NewPoint(geo.Point{X: 9, Y: 9})
	r := types.NewRect(geo.Rect{MinX: 3, MinY: 3, MaxX: 5, MaxY: 5})

	if !ValuesIntersect(poly, pIn) || !ValuesIntersect(pIn, poly) {
		t.Error("polygon/point intersect")
	}
	if ValuesIntersect(poly, pOut) {
		t.Error("polygon/far point should not intersect")
	}
	if !ValuesIntersect(poly, r) || !ValuesIntersect(r, poly) {
		t.Error("polygon/rect intersect")
	}
	if !ValuesIntersect(pIn, pIn) {
		t.Error("point self intersect")
	}
	if ValuesIntersect(types.NewInt64(1), pIn) {
		t.Error("non-spatial must not intersect")
	}
}

func TestTextBuiltins(t *testing.T) {
	v, err := wordTokens([]types.Value{types.NewString("Camping River camping")})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.List()) != 2 {
		t.Errorf("word_tokens = %v", v)
	}
	sim, err := similarityJaccard([]types.Value{
		types.NewString("river scenic camping"),
		types.NewString("river camping backpacking"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Float64() != 0.5 {
		t.Errorf("similarity = %v, want 0.5", sim.Float64())
	}
	// Token-list inputs work too (word_tokens composition).
	sim2, err := similarityJaccard([]types.Value{v, v})
	if err != nil || sim2.Float64() != 1 {
		t.Errorf("similarity of identical lists = %v, %v", sim2, err)
	}
}

func TestIntervalBuiltins(t *testing.T) {
	i1, err := makeInterval([]types.Value{types.NewInt64(0), types.NewInt64(10)})
	if err != nil {
		t.Fatal(err)
	}
	i2, err := makeInterval([]types.Value{types.NewInt64(5), types.NewInt64(15)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := intervalOverlapping([]types.Value{i1, i2})
	if err != nil || !v.Bool() {
		t.Errorf("interval_overlapping = %v, %v", v, err)
	}
	if _, err := makeInterval([]types.Value{types.NewInt64(10), types.NewInt64(0)}); err == nil {
		t.Error("inverted interval should error")
	}
	iv := types.NewInterval(interval.Interval{Start: 100, End: 200})
	v, err = intervalOverlapping([]types.Value{i1, iv})
	if err != nil || v.Bool() {
		t.Errorf("disjoint overlap = %v, %v", v, err)
	}
}

func TestExprStrings(t *testing.T) {
	e := bin(OpAnd,
		&Call{Name: "st_contains", Args: []Expr{col("p", "boundary"), col("w", "location")}},
		bin(OpGe, col("w", "start"), lit(types.NewInt64(2022))))
	s := e.String()
	for _, want := range []string{"st_contains(p.boundary, w.location)", "AND", "w.start >= 2022"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
