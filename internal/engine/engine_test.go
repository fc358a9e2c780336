package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/joins/builtin"
	"fudj/internal/joins/intervaljoin"
	"fudj/internal/joins/spatialjoin"
	"fudj/internal/joins/textsim"
	"fudj/internal/types"
)

// newTestDB builds a database with small synthetic Parks, Wildfires,
// Rides, and Reviews datasets plus all three FUDJ libraries installed
// and their joins created.
func newTestDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	all := append([]Option{WithCluster(2, 2)}, opts...)
	db := MustOpen(all...)
	rng := rand.New(rand.NewSource(99))

	// Parks: id, boundary (polygon), tags (string).
	parksSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "boundary", Kind: types.KindPolygon},
		types.Field{Name: "tags", Kind: types.KindString},
	)
	tagWords := []string{"river", "scenic", "camping", "trail", "lake", "forest", "desert", "historic"}
	var parks []types.Record
	for i := 0; i < 40; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := rng.Float64()*8+1, rng.Float64()*8+1
		poly := geo.NewPolygon([]geo.Point{
			{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h},
		})
		nTags := 2 + rng.Intn(3)
		tags := make([]string, nTags)
		for j := range tags {
			tags[j] = tagWords[rng.Intn(len(tagWords))]
		}
		parks = append(parks, types.Record{
			types.NewInt64(int64(i)),
			types.NewPolygon(poly),
			types.NewString(strings.Join(tags, " ")),
		})
	}
	if err := db.CreateDataset("parks", parksSchema, parks); err != nil {
		t.Fatal(err)
	}

	// Wildfires: id, location (point), year.
	firesSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "location", Kind: types.KindPoint},
		types.Field{Name: "year", Kind: types.KindInt64},
	)
	var fires []types.Record
	for i := 0; i < 120; i++ {
		fires = append(fires, types.Record{
			types.NewInt64(int64(i)),
			types.NewPoint(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}),
			types.NewInt64(2020 + int64(rng.Intn(4))),
		})
	}
	if err := db.CreateDataset("wildfires", firesSchema, fires); err != nil {
		t.Fatal(err)
	}

	// Rides: id, vendor, ride_interval.
	ridesSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "vendor", Kind: types.KindInt64},
		types.Field{Name: "ride_interval", Kind: types.KindInterval},
	)
	var rides []types.Record
	for i := 0; i < 100; i++ {
		s := rng.Int63n(5000)
		rides = append(rides, types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(1 + int64(rng.Intn(2))),
			types.NewInterval(interval.Interval{Start: s, End: s + rng.Int63n(300)}),
		})
	}
	if err := db.CreateDataset("rides", ridesSchema, rides); err != nil {
		t.Fatal(err)
	}

	// Reviews: id, overall, review (text).
	reviewsSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "overall", Kind: types.KindInt64},
		types.Field{Name: "review", Kind: types.KindString},
	)
	var reviews []types.Record
	for i := 0; i < 80; i++ {
		n := 3 + rng.Intn(4)
		words := make([]string, n)
		for j := range words {
			words[j] = tagWords[rng.Intn(len(tagWords))]
		}
		reviews = append(reviews, types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(4 + int64(rng.Intn(2))),
			types.NewString(strings.Join(words, " ")),
		})
	}
	if err := db.CreateDataset("reviews", reviewsSchema, reviews); err != nil {
		t.Fatal(err)
	}

	// Install libraries and create the joins.
	if err := db.InstallLibrary(spatialjoin.Library()); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallLibrary(textsim.Library()); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallLibrary(intervaljoin.Library()); err != nil {
		t.Fatal(err)
	}
	ddl := []string{
		`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		`CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		`CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
	}
	for _, stmt := range ddl {
		if _, err := db.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

// rowsKey builds an order-insensitive multiset fingerprint of rows.
func rowsKey(rows []types.Record) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, name string, a, b []types.Record) {
	t.Helper()
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: row %d differs:\n  %s\n  %s", name, i, ka[i], kb[i])
		}
	}
}

func mustQuery(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestDDLLifecycle(t *testing.T) {
	db := newTestDB(t)
	// Duplicate create fails.
	if _, err := db.Execute(`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`); err == nil {
		t.Error("duplicate CREATE JOIN should fail")
	}
	// Unknown library fails.
	if _, err := db.Execute(`CREATE JOIN j2(a: string, b: string) RETURNS boolean AS "x.Y" AT nolib`); err == nil {
		t.Error("CREATE JOIN with unknown library should fail")
	}
	// Unknown class fails.
	if _, err := db.Execute(`CREATE JOIN j3(a: string, b: string) RETURNS boolean AS "no.Class" AT spatialjoins`); err == nil {
		t.Error("CREATE JOIN with unknown class should fail")
	}
	// Wrong parameter count vs descriptor fails at DDL time.
	if _, err := db.Execute(`CREATE JOIN j4(a: geometry, b: geometry) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`); err == nil {
		t.Error("CREATE JOIN with wrong arity should fail")
	}
	// Drop works, then the FUDJ query falls back to an error (unknown fn).
	if _, err := db.Execute(`DROP JOIN spatial_join`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`DROP JOIN spatial_join`); err == nil {
		t.Error("double DROP JOIN should fail")
	}
	if _, err := db.Execute(`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`); err == nil {
		t.Error("query with dropped join should fail to plan")
	}
}

// The central engine contract: a FUDJ query returns exactly what the
// equivalent on-top (NLJ + scalar predicate) query returns.
func TestSpatialFUDJEquivalence(t *testing.T) {
	db := newTestDB(t)
	fudjRes := mustQuery(t, db, `
		SELECT p.id, w.id FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`)
	ontopRes := mustQuery(t, db, `
		SELECT p.id, w.id FROM parks p, wildfires w
		WHERE st_intersects(p.boundary, w.location)`)
	sameRows(t, "spatial", fudjRes.Rows, ontopRes.Rows)
	if len(fudjRes.Rows) == 0 {
		t.Fatal("spatial join produced no rows; dataset too sparse for the test")
	}
	// The FUDJ plan must have pruned candidates relative to NLJ.
	if fudjRes.Join.Candidates >= ontopRes.Join.Candidates {
		t.Errorf("FUDJ candidates %d >= NLJ candidates %d", fudjRes.Join.Candidates, ontopRes.Join.Candidates)
	}
	if fudjRes.Join.StateBytes == 0 {
		t.Error("FUDJ should move summary/plan state bytes")
	}
}

func TestIntervalFUDJEquivalence(t *testing.T) {
	db := newTestDB(t)
	fudjRes := mustQuery(t, db, `
		SELECT n1.id, n2.id FROM rides n1, rides n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		  AND overlapping_interval(n1.ride_interval, n2.ride_interval, 50)`)
	ontopRes := mustQuery(t, db, `
		SELECT n1.id, n2.id FROM rides n1, rides n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		  AND interval_overlapping(n1.ride_interval, n2.ride_interval)`)
	sameRows(t, "interval", fudjRes.Rows, ontopRes.Rows)
	if len(fudjRes.Rows) == 0 {
		t.Fatal("interval join produced no rows")
	}
}

func TestTextSimFUDJEquivalence(t *testing.T) {
	db := newTestDB(t)
	fudjRes := mustQuery(t, db, `
		SELECT r1.id, r2.id FROM reviews r1, reviews r2
		WHERE r1.overall = 5 AND r2.overall = 4
		  AND text_similarity_join(r1.review, r2.review, 0.8)`)
	ontopRes := mustQuery(t, db, `
		SELECT r1.id, r2.id FROM reviews r1, reviews r2
		WHERE r1.overall = 5 AND r2.overall = 4
		  AND similarity_jaccard(word_tokens(r1.review), word_tokens(r2.review)) >= 0.8`)
	sameRows(t, "textsim", fudjRes.Rows, ontopRes.Rows)
	if len(fudjRes.Rows) == 0 {
		t.Fatal("text join produced no rows")
	}
}

func TestPaperQuery1Shape(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8) AND w.year >= 2021
		GROUP BY p.id
		ORDER BY num_fires DESC, p.id
		LIMIT 5`)
	if len(res.Rows) == 0 || len(res.Rows) > 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Descending counts.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].Int64() > res.Rows[i-1][1].Int64() {
			t.Error("ORDER BY num_fires DESC violated")
		}
	}
	if res.Schema.Fields[1].Name != "num_fires" {
		t.Errorf("schema = %v", res.Schema)
	}
	// Cross-check against the on-top formulation.
	ontop := mustQuery(t, db, `
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE st_intersects(p.boundary, w.location) AND w.year >= 2021
		GROUP BY p.id
		ORDER BY num_fires DESC, p.id
		LIMIT 5`)
	sameRows(t, "query1", res.Rows, ontop.Rows)
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT r.overall, COUNT(*) AS n, AVG(len(r.review)) AS avg_len,
		       MIN(r.id) AS lo, MAX(r.id) AS hi, SUM(r.id) AS total
		FROM reviews r GROUP BY r.overall ORDER BY r.overall`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 rating groups", len(res.Rows))
	}
	var totalN int64
	for _, row := range res.Rows {
		totalN += row[1].Int64()
		if row[2].Float64() <= 0 {
			t.Error("avg_len should be positive")
		}
		if row[3].Int64() > row[4].Int64() {
			t.Error("min > max")
		}
	}
	if totalN != 80 {
		t.Errorf("counts sum to %d, want 80", totalN)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM reviews r WHERE r.overall = 99`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int64() != 0 {
		t.Errorf("COUNT over empty = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT AVG(r.id) FROM reviews r WHERE r.overall = 99`)
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Errorf("AVG over empty = %v", res.Rows)
	}
}

func TestHashJoinPath(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT COUNT(*) FROM reviews a, reviews b WHERE a.id = b.id`)
	if res.Rows[0][0].Int64() != 80 {
		t.Errorf("self equi-join count = %v, want 80", res.Rows[0][0])
	}
	// Plan should mention the hash join.
	ex := mustQuery(t, db, `EXPLAIN SELECT COUNT(*) FROM reviews a, reviews b WHERE a.id = b.id`)
	if !strings.Contains(ex.Plan, "HASH JOIN") {
		t.Errorf("plan = %s", ex.Plan)
	}
}

// TestHashJoinAgreesWithEquals runs each key pair through the hash-join
// plan of x.k = y.k and the nested-loop plan of the same equality, which
// evaluates the = operator itself: both must return the same multiset,
// across int and float keys, signed zeros and NULLs.
func TestHashJoinAgreesWithEquals(t *testing.T) {
	ints := func(n int) []types.Value {
		var vs []types.Value
		for i := 0; i < n; i++ {
			vs = append(vs, types.NewInt64(int64(i)))
		}
		return append(vs, types.Null)
	}
	floats := func(n int) []types.Value {
		var vs []types.Value
		for i := 0; i < n; i++ {
			vs = append(vs, types.NewFloat64(float64(i)))
		}
		return append(vs, types.Null)
	}
	negZero := types.NewFloat64(math.Copysign(0, -1))
	for _, c := range []struct {
		name         string
		lKind, rKind types.Kind
		l, r         []types.Value
		want         int
	}{
		{"int-int", types.KindInt64, types.KindInt64, ints(20), ints(20), 21},
		{"int-float", types.KindInt64, types.KindFloat64, ints(20), floats(20), 21},
		{"float-float-signed-zero", types.KindFloat64, types.KindFloat64,
			[]types.Value{types.NewFloat64(0), negZero, types.NewFloat64(1.5)},
			[]types.Value{negZero, types.NewFloat64(0), types.NewFloat64(1.5), types.NewFloat64(2.5)}, 5},
		{"null", types.KindInt64, types.KindFloat64,
			[]types.Value{types.Null, types.Null, types.NewInt64(1)},
			[]types.Value{types.Null, types.NewFloat64(2), types.Null}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := MustOpen(WithCluster(2, 2))
			for _, ds := range []struct {
				name string
				kind types.Kind
				vals []types.Value
			}{{"a", c.lKind, c.l}, {"b", c.rKind, c.r}} {
				recs := make([]types.Record, len(ds.vals))
				for i, v := range ds.vals {
					recs[i] = types.Record{types.NewInt64(int64(i)), v}
				}
				schema := types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64},
					types.Field{Name: "k", Kind: ds.kind})
				if err := db.CreateDataset(ds.name, schema, recs); err != nil {
					t.Fatal(err)
				}
			}
			const sel = `SELECT x.id, y.id FROM a x, b y WHERE `
			multiset := func(where, plan string) []string {
				if ex := mustQuery(t, db, "EXPLAIN "+sel+where); !strings.Contains(ex.Plan, plan) {
					t.Fatalf("%s: plan has no %s:\n%s", where, plan, ex.Plan)
				}
				var rows []string
				for _, r := range mustQuery(t, db, sel+where).Rows {
					rows = append(rows, fmt.Sprint(r))
				}
				sort.Strings(rows)
				return rows
			}
			hash := multiset(`x.k = y.k`, "HASH JOIN")
			nlj := multiset(`(x.k = y.k OR 1 = 0)`, "NESTED-LOOP JOIN")
			if len(nlj) != c.want {
				t.Errorf("nested-loop plan returned %d rows, want %d", len(nlj), c.want)
			}
			if fmt.Sprint(hash) != fmt.Sprint(nlj) {
				t.Errorf("hash join %v, nested loop %v", hash, nlj)
			}
		})
	}
}

// TestGroupingAgreesWithEquals checks that GROUP BY and DISTINCT hold
// 0.0 and -0.0 as one value, as the = operator does.
func TestGroupingAgreesWithEquals(t *testing.T) {
	db := MustOpen(WithCluster(2, 2))
	schema := types.NewSchema(types.Field{Name: "v", Kind: types.KindFloat64})
	recs := []types.Record{{types.NewFloat64(0)}, {types.NewFloat64(math.Copysign(0, -1))}}
	if err := db.CreateDataset("t", schema, recs); err != nil {
		t.Fatal(err)
	}
	if n := mustQuery(t, db, `SELECT COUNT(*) FROM t a, t b WHERE a.v = b.v`).Rows[0][0].Int64(); n != 4 {
		t.Fatalf("= paired %d rows, want 4: the two zeros are equal", n)
	}
	if rows := mustQuery(t, db, `SELECT DISTINCT t.v FROM t t`).Rows; len(rows) != 1 {
		t.Errorf("DISTINCT returned %v, want one row", rows)
	}
	rows := mustQuery(t, db, `SELECT t.v, COUNT(*) FROM t t GROUP BY t.v`).Rows
	if len(rows) != 1 || rows[0][1].Int64() != 2 {
		t.Errorf("GROUP BY returned %v, want one group of 2", rows)
	}
}

// TestExplainNestedLoopBroadcast pins what EXPLAIN says about the
// nested-loop join against what it does: with the smaller input on the
// left, the left side is the one replicated.
func TestExplainNestedLoopBroadcast(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT COUNT(*) FROM parks p, reviews r WHERE (p.id = r.id OR 1 = 0)`
	ex := mustQuery(t, db, "EXPLAIN "+q)
	if !strings.Contains(ex.Plan, "NESTED-LOOP JOIN on ((p.id = r.id) OR (1 = 0))  (broadcast smaller input)") {
		t.Errorf("plan = %s", ex.Plan)
	}
	// 40 parks, 80 reviews on a 2×2 cluster: each replicated record
	// crosses to the other node's two partitions, so replicating the
	// reviews would ship 160 records. Either way round, the parks go.
	left := mustQuery(t, db, q).Cluster.RecordsShuffled
	right := mustQuery(t, db, `SELECT COUNT(*) FROM reviews r, parks p WHERE (p.id = r.id OR 1 = 0)`).Cluster.RecordsShuffled
	if left != right || left >= 2*80 {
		t.Errorf("shuffled %d records with parks left, %d with parks right; want equal, below 160", left, right)
	}
}

func TestCrossJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM parks p, reviews r`)
	if res.Rows[0][0].Int64() != 40*80 {
		t.Errorf("cross join count = %v", res.Rows[0][0])
	}
}

func TestProjectionAndLimit(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT r.id, r.id + 100 AS shifted FROM reviews r ORDER BY r.id LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].Int64() != int64(i) || row[1].Int64() != int64(i)+100 {
			t.Errorf("row %d = %v", i, row)
		}
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT * FROM reviews r LIMIT 2`)
	if res.Schema.Len() != 3 || len(res.Rows) != 2 {
		t.Errorf("star schema = %v rows = %d", res.Schema, len(res.Rows))
	}
}

func TestExplainFUDJPlan(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		EXPLAIN SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8) AND w.year >= 2021`)
	plan := res.Plan
	for _, want := range []string{"FUDJ JOIN spatial_join", "SUMMARIZE", "PARTITION", "COMBINE", "HASH (default match)", "SCAN wildfires", "FILTER"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// The interval join should show the theta path instead.
	res = mustQuery(t, db, `
		EXPLAIN SELECT COUNT(*) FROM rides a, rides b
		WHERE overlapping_interval(a.ride_interval, b.ride_interval, 10)`)
	if !strings.Contains(res.Plan, "THETA") {
		t.Errorf("interval plan should be theta:\n%s", res.Plan)
	}
	// Self-join with identical filters reuses the summary.
	if !strings.Contains(res.Plan, "summary reused") {
		t.Errorf("self-join should reuse summary:\n%s", res.Plan)
	}
}

func TestSelfJoinWithDifferentFiltersDoesNotReuse(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		EXPLAIN SELECT COUNT(*) FROM rides a, rides b
		WHERE a.vendor = 1 AND b.vendor = 2
		  AND overlapping_interval(a.ride_interval, b.ride_interval, 10)`)
	if strings.Contains(res.Plan, "summary reused") {
		t.Errorf("different filters must not reuse summary:\n%s", res.Plan)
	}
}

// bandRange is the band join's summary and plan: the smallest range
// holding every summarized key.
type bandRange struct{ Min, Max, N int64 }

func (a bandRange) merge(b bandRange) bandRange {
	switch {
	case a.N == 0:
		return b
	case b.N == 0:
		return a
	}
	return bandRange{min(a.Min, b.Min), max(a.Max, b.Max), a.N + b.N}
}

// TestSelfJoinWithDifferentKeysDoesNotReuse pins that summary reuse
// compares the join keys, not only the dataset and filters: a band join
// whose ASSIGN drops keys outside the summarized range loses rows when
// x.a's summary stands in for y.b's. Reuse also needs a join whose sides
// share one SUMMARIZE, and EXPLAIN reports the decision the executor
// acts on.
func TestSelfJoinWithDifferentKeysDoesNotReuse(t *testing.T) {
	db := newTestDB(t)
	band := func(name string, symmetric bool) core.Join {
		s := core.Spec[int64, int64, bandRange, bandRange]{
			Name:         name,
			NewSummary:   func() bandRange { return bandRange{} },
			LocalAggLeft: func(k int64, s bandRange) bandRange { return s.merge(bandRange{k, k, 1}) },
			GlobalAgg:    bandRange.merge,
			Divide:       func(l, r bandRange, _ []any) (bandRange, error) { return l.merge(r), nil },
			AssignLeft: func(k int64, p bandRange, dst []core.BucketID) []core.BucketID {
				if k < p.Min || k > p.Max {
					return dst
				}
				return append(dst, 0)
			},
			Verify: func(_ core.BucketID, l int64, _ core.BucketID, r int64, _ bandRange) bool {
				return l-r <= 2 && r-l <= 2
			},
		}
		if !symmetric {
			s.LocalAggRight = s.LocalAggLeft
		}
		return core.Wrap(s)
	}
	lib := core.NewLibrary("bandlib")
	lib.MustRegister("test.Band", func() core.Join { return band("band", true) })
	lib.MustRegister("test.BandAsymmetric", func() core.Join { return band("band_asym", false) })
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `CREATE JOIN band(a: int, b: int) RETURNS boolean AS "test.Band" AT bandlib`)
	mustQuery(t, db, `CREATE JOIN band_asym(a: int, b: int) RETURNS boolean AS "test.BandAsymmetric" AT bandlib`)
	schema := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt64},
		types.Field{Name: "b", Kind: types.KindInt64},
	)
	var recs []types.Record
	for i := int64(0); i < 10; i++ {
		recs = append(recs, types.Record{types.NewInt64(i), types.NewInt64(i + 5)})
	}
	if err := db.CreateDataset("t", schema, recs); err != nil {
		t.Fatal(err)
	}
	// brute counts the pairs whose keys, columns lc of x and rc of y,
	// lie within 2 of each other.
	brute := func(lc, rc int) (n int64) {
		for _, x := range recs {
			for _, y := range recs {
				if d := x[lc].Int64() - y[rc].Int64(); d >= -2 && d <= 2 {
					n++
				}
			}
		}
		return n
	}
	for _, q := range []struct {
		sql   string
		want  int64
		reuse bool
	}{
		{`SELECT COUNT(*) FROM t x, t y WHERE band(x.a, y.b)`, brute(0, 1), false},
		{`SELECT COUNT(*) FROM t x, t y WHERE band(x.a, y.a)`, brute(0, 0), true},
		{`SELECT COUNT(*) FROM t x, t y WHERE band_asym(x.a, y.b)`, brute(0, 1), false},
		{`SELECT COUNT(*) FROM t x, t y WHERE band_asym(x.a, y.a)`, brute(0, 0), false},
	} {
		if got := mustQuery(t, db, "EXPLAIN "+q.sql).Plan; strings.Contains(got, "summary reused") != q.reuse {
			t.Errorf("%s: want summary reuse %v in EXPLAIN:\n%s", q.sql, q.reuse, got)
		}
		if got := mustQuery(t, db, q.sql).Rows[0][0].Int64(); got != q.want {
			t.Errorf("%s = %d rows, brute force %d", q.sql, got, q.want)
		}
	}
}

func TestPredicatePushdown(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		EXPLAIN SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8) AND w.year >= 2021`)
	if !strings.Contains(res.Plan, "SCAN wildfires AS w FILTER") {
		t.Errorf("filter not pushed to scan:\n%s", res.Plan)
	}
}

func TestBuiltinModeFallsBackWithoutRegistration(t *testing.T) {
	db := newTestDB(t)
	db.MustConfigure(WithJoinMode(ModeBuiltin))
	// No built-in registered: planner keeps the FUDJ plan.
	res := mustQuery(t, db, `
		SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`)
	db.MustConfigure(WithJoinMode(ModeFUDJ))
	res2 := mustQuery(t, db, `
		SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`)
	if res.Rows[0][0].Int64() != res2.Rows[0][0].Int64() {
		t.Error("mode without registration changed results")
	}
}

func TestLocalJoinHookEndToEnd(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Execute(`CREATE JOIN spatial_sweep(a: geometry, b: geometry, n: int)
		RETURNS boolean AS "pbsm.SpatialJoinPlaneSweep" AT spatialjoins`); err != nil {
		t.Fatal(err)
	}
	hook := mustQuery(t, db, `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_sweep(p.boundary, w.location, 8)`)
	plain := mustQuery(t, db, `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`)
	sameRows(t, "localjoin hook", hook.Rows, plain.Rows)
	if len(hook.Rows) == 0 {
		t.Fatal("no rows")
	}
	if hook.Join.Verified != plain.Join.Verified {
		t.Errorf("verified counts differ: %d vs %d", hook.Join.Verified, plain.Join.Verified)
	}
}

func TestBuiltinModeEndToEnd(t *testing.T) {
	db := newTestDB(t)
	db.RegisterBuiltinJoin("spatial_join", BuiltinJoinFunc(builtin.SpatialPBSM))
	db.RegisterBuiltinJoin("overlapping_interval", BuiltinJoinFunc(builtin.IntervalOIP))
	db.RegisterBuiltinJoin("text_similarity_join", BuiltinJoinFunc(builtin.TextSimilarity))

	queries := []string{
		`SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`,
		`SELECT a.id, b.id FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2 AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
		`SELECT a.id, b.id FROM reviews a, reviews b WHERE a.overall = 5 AND b.overall = 4 AND text_similarity_join(a.review, b.review, 0.8)`,
	}
	for _, q := range queries {
		db.MustConfigure(WithJoinMode(ModeFUDJ))
		fudjRes := mustQuery(t, db, q)
		db.MustConfigure(WithJoinMode(ModeBuiltin))
		builtinRes := mustQuery(t, db, q)
		sameRows(t, q, fudjRes.Rows, builtinRes.Rows)
		if len(fudjRes.Rows) == 0 {
			t.Errorf("query produced no rows: %s", q)
		}
		// The built-in plan should say so.
		ex := mustQuery(t, db, "EXPLAIN "+q)
		if !strings.Contains(ex.Plan, "BUILTIN JOIN") {
			t.Errorf("plan should show BUILTIN JOIN:\n%s", ex.Plan)
		}
	}
	db.MustConfigure(WithJoinMode(ModeFUDJ))
}

func TestSmartThetaEquivalence(t *testing.T) {
	db := newTestDB(t)
	queries := []string{
		// Theta multi-join (interval).
		`SELECT a.id, b.id FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2
		 AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
		// Theta self-join with summary reuse in play.
		`SELECT a.id, b.id FROM rides a, rides b
		 WHERE overlapping_interval(a.ride_interval, b.ride_interval, 25)`,
	}
	for i, q := range queries {
		db.MustConfigure(WithSmartTheta(false))
		naive := mustQuery(t, db, q)
		db.MustConfigure(WithSmartTheta(true))
		smart := mustQuery(t, db, q)
		db.MustConfigure(WithSmartTheta(false))
		sameRows(t, q, naive.Rows, smart.Rows)
		if len(naive.Rows) == 0 {
			t.Fatalf("no rows for %s", q)
		}
		// The balanced operator moves fewer records than broadcast when
		// each bucket matches fewer pairs than there are partitions; the
		// first query's 50 granules guarantee that, the coarse second one
		// does not, so only the first asserts the reduction.
		if i == 0 && smart.Cluster.RecordsShuffled >= naive.Cluster.RecordsShuffled {
			t.Errorf("smart theta shuffled %d records, naive %d — expected a reduction",
				smart.Cluster.RecordsShuffled, naive.Cluster.RecordsShuffled)
		}
	}
}

func TestClusterSweepGivesSameAnswers(t *testing.T) {
	db := newTestDB(t)
	baseline := mustQuery(t, db, `
		SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`).Rows[0][0].Int64()
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 1},
		{Nodes: 1, CoresPerNode: 8},
		{Nodes: 6, CoresPerNode: 2},
	} {
		if err := db.Configure(WithCluster(cfg.Nodes, cfg.CoresPerNode)); err != nil {
			t.Fatal(err)
		}
		got := mustQuery(t, db, `
			SELECT COUNT(*) FROM parks p, wildfires w
			WHERE spatial_join(p.boundary, w.location, 8)`).Rows[0][0].Int64()
		if got != baseline {
			t.Errorf("cluster %+v: count %d, want %d", cfg, got, baseline)
		}
	}
}

func TestThreeWayJoinQuery3Shape(t *testing.T) {
	db := newTestDB(t)
	// A miniature of the paper's Query 3: spatial join then interval
	// join in one query (rides doubling as "weather" with intervals).
	res := mustQuery(t, db, `
		SELECT COUNT(*)
		FROM parks p, wildfires w, rides r
		WHERE spatial_join(p.boundary, w.location, 8)
		  AND r.vendor = 1 AND w.year >= 2021`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Cross-check with the on-top formulation.
	ontop := mustQuery(t, db, `
		SELECT COUNT(*)
		FROM parks p, wildfires w, rides r
		WHERE st_intersects(p.boundary, w.location)
		  AND r.vendor = 1 AND w.year >= 2021`)
	if res.Rows[0][0].Int64() != ontop.Rows[0][0].Int64() {
		t.Errorf("3-way FUDJ %v != on-top %v", res.Rows[0][0], ontop.Rows[0][0])
	}
	if res.Rows[0][0].Int64() == 0 {
		t.Error("3-way join produced nothing")
	}
}

// TestSelectInto exercises the paper's motivating workflow: Query 1
// materializes Damaged_Parks, Query 2 reads it.
func TestSelectInto(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT p.id AS park_id, COUNT(w.id) AS num_fires
		INTO damaged_parks
		FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)
		GROUP BY p.id`)
	if len(res.Rows) == 0 {
		t.Fatal("no damaged parks")
	}
	// The materialized dataset is queryable, with sanitized field names.
	follow := mustQuery(t, db, `
		SELECT COUNT(*) FROM damaged_parks d, parks p
		WHERE d.park_id = p.id`)
	if follow.Rows[0][0].Int64() != int64(len(res.Rows)) {
		t.Errorf("follow-up join count %v, want %d", follow.Rows[0][0], len(res.Rows))
	}
	// INTO an existing dataset name fails.
	if _, err := db.Execute(`SELECT p.id INTO parks FROM parks p`); err == nil {
		t.Error("INTO existing dataset should fail")
	}
	// Unaliased expression columns are sanitized, not rejected.
	mustQuery(t, db, `SELECT p.id, p.id + 1 INTO shifted FROM parks p`)
	ds, err := db.Catalog().Dataset("shifted")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Schema.Index("p_id") < 0 {
		t.Errorf("sanitized schema = %v", ds.Schema)
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	all := mustQuery(t, db, `
		SELECT r.overall, COUNT(*) AS n FROM reviews r GROUP BY r.overall`)
	filtered := mustQuery(t, db, `
		SELECT r.overall, COUNT(*) AS n FROM reviews r GROUP BY r.overall
		HAVING COUNT(*) > 35 ORDER BY n DESC`)
	if len(filtered.Rows) >= len(all.Rows) && len(all.Rows) > 1 {
		t.Errorf("HAVING did not filter: %d vs %d groups", len(filtered.Rows), len(all.Rows))
	}
	for _, row := range filtered.Rows {
		if row[1].Int64() <= 35 {
			t.Errorf("group %v violates HAVING: n=%v", row[0], row[1])
		}
	}
	// HAVING may reference group keys and combine predicates.
	res := mustQuery(t, db, `
		SELECT r.overall, COUNT(*) AS n FROM reviews r GROUP BY r.overall
		HAVING r.overall >= 5 AND COUNT(*) > 0`)
	for _, row := range res.Rows {
		if row[0].Int64() < 5 {
			t.Errorf("group key predicate violated: %v", row)
		}
	}
	// An aggregate not in the select list is rejected with a clear error.
	if _, err := db.Execute(`
		SELECT r.overall FROM reviews r GROUP BY r.overall HAVING SUM(r.id) > 10`); err == nil {
		t.Error("HAVING with unprojected aggregate should fail")
	}
	// HAVING without grouping or aggregates is rejected at parse time.
	if _, err := db.Execute(`SELECT r.id FROM reviews r HAVING r.id > 1`); err == nil {
		t.Error("HAVING without GROUP BY should fail")
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	dup := mustQuery(t, db, `SELECT r.overall FROM reviews r`)
	dis := mustQuery(t, db, `SELECT DISTINCT r.overall FROM reviews r ORDER BY r.overall`)
	if len(dis.Rows) != 2 {
		t.Fatalf("DISTINCT rows = %d, want 2 ratings", len(dis.Rows))
	}
	if len(dup.Rows) != 80 {
		t.Fatalf("non-distinct rows = %d", len(dup.Rows))
	}
	if dis.Rows[0][0].Int64() != 4 || dis.Rows[1][0].Int64() != 5 {
		t.Errorf("DISTINCT values = %v", dis.Rows)
	}
}

func TestAggregatesOverStrings(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT MIN(p.tags) AS lo, MAX(p.tags) AS hi FROM parks p`)
	if len(res.Rows) != 1 {
		t.Fatal("want one row")
	}
	lo, hi := res.Rows[0][0], res.Rows[0][1]
	if lo.Kind() != types.KindString || hi.Kind() != types.KindString {
		t.Fatalf("min/max kinds = %v/%v", lo.Kind(), hi.Kind())
	}
	if lo.Compare(hi) > 0 {
		t.Errorf("MIN %v > MAX %v", lo, hi)
	}
	// SUM over strings must fail cleanly, not panic.
	if _, err := db.Execute(`SELECT SUM(p.tags) FROM parks p`); err == nil {
		t.Error("SUM over strings should error")
	}
}

func TestMultiKeyOrderByAndLimitZero(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `SELECT r.overall, r.id FROM reviews r ORDER BY r.overall DESC, r.id LIMIT 20`)
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0].Int64() < b[0].Int64() {
			t.Fatal("primary DESC key violated")
		}
		if a[0].Int64() == b[0].Int64() && a[1].Int64() > b[1].Int64() {
			t.Fatal("secondary ASC key violated")
		}
	}
	if got := mustQuery(t, db, `SELECT r.id FROM reviews r LIMIT 0`); len(got.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(got.Rows))
	}
}

func TestSumMixedNumericWidening(t *testing.T) {
	db := MustOpen(WithCluster(2, 1))
	schema := types.NewSchema(
		types.Field{Name: "g", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindFloat64},
		types.Field{Name: "i", Kind: types.KindInt64},
	)
	recs := []types.Record{
		{types.NewInt64(1), types.NewFloat64(1.5), types.NewInt64(10)},
		{types.NewInt64(1), types.NewFloat64(2.5), types.NewInt64(20)},
	}
	if err := db.CreateDataset("t", schema, recs); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `SELECT SUM(t.v) AS fs, SUM(t.i) AS is_, AVG(t.i) AS ai FROM t t`)
	if got := res.Rows[0][0].Float64(); got != 4.0 {
		t.Errorf("float SUM = %v", got)
	}
	if got := res.Rows[0][1].Int64(); got != 30 {
		t.Errorf("int SUM = %v (should stay integral)", got)
	}
	if got := res.Rows[0][2].Float64(); got != 15 {
		t.Errorf("AVG = %v", got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := newTestDB(t)
	queries := []string{
		`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`,
		`SELECT COUNT(*) FROM reviews a, reviews b WHERE a.id = b.id`,
		`SELECT r.overall, COUNT(*) FROM reviews r GROUP BY r.overall`,
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Execute(queries[i%len(queries)])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	db := newTestDB(t)
	for _, sql := range []string{
		`SELECT COUNT(*) FROM nosuch n`,
		`SELECT p.id FROM parks p, parks p`, // duplicate alias
		`SELECT p.nosuchcol FROM parks p`,
		`SELECT p.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, w.id)`,        // non-literal param
		`SELECT p.id, COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`, // p.id not grouped
		`SELECT spatial_join(p.boundary, p.boundary, 8) FROM parks p`,                                   // FUDJ in projection is not a join
	} {
		if _, err := db.Execute(sql); err == nil {
			t.Errorf("Execute(%q): want error", sql)
		}
	}
}

func TestFUDJKeysMustSplitAcrossSides(t *testing.T) {
	db := newTestDB(t)
	// Both keys reference the same side: the rewrite must reject it.
	_, err := db.Execute(`
		SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, p.boundary, 8) AND w.year >= 0`)
	if err == nil || !strings.Contains(err.Error(), "split") {
		t.Errorf("err = %v, want key split error", err)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`)
	if res.Join.SummarizeTime <= 0 || res.Join.PartitionTime <= 0 || res.Join.CombineTime <= 0 {
		t.Errorf("phase times not populated: %+v", res.Join)
	}
	// Phases cannot exceed the whole query.
	sum := res.Join.SummarizeTime + res.Join.PartitionTime + res.Join.CombineTime
	if sum > res.Elapsed {
		t.Errorf("phase sum %v exceeds elapsed %v", sum, res.Elapsed)
	}
	// Non-FUDJ queries report zero phase time.
	plain := mustQuery(t, db, `SELECT COUNT(*) FROM parks p`)
	if plain.Join.SummarizeTime != 0 {
		t.Errorf("non-FUDJ query has phase times: %+v", plain.Join)
	}
}

func TestSanitizeFieldName(t *testing.T) {
	cases := map[string]string{
		"p.id":          "p_id",
		"count(1)":      "count_1_",
		"already_clean": "already_clean",
		"(a.x + b.y)":   "_a_x___b_y_",
		"MixedCase123":  "MixedCase123",
	}
	for in, want := range cases {
		if got := sanitizeFieldName(in); got != want {
			t.Errorf("sanitizeFieldName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, `
		SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`)
	if res.Cluster.BytesShuffled == 0 {
		t.Error("expected shuffle bytes on a 2-node cluster")
	}
	if res.Cluster.BytesBroadcast == 0 {
		t.Error("expected broadcast bytes for summaries/plan")
	}
	if res.Cluster.MaxBusy <= 0 || res.Cluster.TotalBusy < res.Cluster.MaxBusy {
		t.Error("busy-time metrics not populated")
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not populated")
	}
	if res.Join.Verified == 0 || res.Join.Output == 0 {
		t.Errorf("stats = %+v", res.Join)
	}
}

func TestDedupVariantsAgreeThroughEngine(t *testing.T) {
	db := newTestDB(t)
	for i, ddl := range []string{
		`CREATE JOIN spatial_rp(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinReferencePoint" AT spatialjoins`,
		`CREATE JOIN spatial_elim(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinElimination" AT spatialjoins`,
	} {
		if _, err := db.Execute(ddl); err != nil {
			t.Fatalf("ddl %d: %v", i, err)
		}
	}
	base := mustQuery(t, db, `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`)
	rp := mustQuery(t, db, `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_rp(p.boundary, w.location, 8)`)
	elim := mustQuery(t, db, `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_elim(p.boundary, w.location, 8)`)
	sameRows(t, "refpoint", base.Rows, rp.Rows)
	sameRows(t, "elimination", base.Rows, elim.Rows)
}

// Property-style check over several seeds: FUDJ == on-top across a
// range of bucket counts for all three joins.
func TestEquivalenceAcrossBucketCounts(t *testing.T) {
	db := newTestDB(t)
	for _, n := range []int{1, 4, 32} {
		f := mustQuery(t, db, fmt.Sprintf(
			`SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`, n))
		o := mustQuery(t, db,
			`SELECT p.id, w.id FROM parks p, wildfires w WHERE st_intersects(p.boundary, w.location)`)
		sameRows(t, fmt.Sprintf("spatial n=%d", n), f.Rows, o.Rows)
	}
	for _, n := range []int{1, 10, 200} {
		f := mustQuery(t, db, fmt.Sprintf(
			`SELECT a.id, b.id FROM rides a, rides b WHERE overlapping_interval(a.ride_interval, b.ride_interval, %d)`, n))
		o := mustQuery(t, db,
			`SELECT a.id, b.id FROM rides a, rides b WHERE interval_overlapping(a.ride_interval, b.ride_interval)`)
		sameRows(t, fmt.Sprintf("interval n=%d", n), f.Rows, o.Rows)
	}
}
