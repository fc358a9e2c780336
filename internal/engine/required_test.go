package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/interval"
	"fudj/internal/joins/builtin"
	"fudj/internal/sqlparse"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// TestRequiredColumns pins the planner's required-columns analysis:
// per join step, the fields of its left and right input that something
// after the join reads.
func TestRequiredColumns(t *testing.T) {
	type need struct{ l, r []string }
	const spatial = ` FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`
	allParks := []string{"p.id", "p.boundary", "p.tags"}
	allFires := []string{"w.id", "w.location", "w.year"}
	cases := []struct {
		name string
		mode JoinMode
		sql  string
		want []need
	}{
		{"count star", ModeFUDJ, `SELECT COUNT(*)` + spatial, []need{{nil, nil}}},
		{"select star", ModeFUDJ, `SELECT *` + spatial, []need{{allParks, allFires}}},
		{"two columns", ModeFUDJ, `SELECT p.id, w.id` + spatial, []need{{[]string{"p.id"}, []string{"w.id"}}}},
		{"residual on a non-projected column", ModeFUDJ,
			`SELECT p.id` + spatial + ` AND p.id < w.year`,
			[]need{{[]string{"p.id"}, []string{"w.year"}}}},
		{"group by an expression", ModeFUDJ,
			`SELECT w.year + 1, COUNT(*)` + spatial + ` GROUP BY w.year + 1`,
			[]need{{nil, []string{"w.year"}}}},
		{"having reads the output", ModeFUDJ,
			`SELECT w.year, COUNT(*) AS n` + spatial + ` GROUP BY w.year HAVING COUNT(*) > 1`,
			[]need{{nil, []string{"w.year"}}}},
		{"order by an alias reads the output", ModeFUDJ,
			`SELECT p.id AS pid` + spatial + ` ORDER BY pid`,
			[]need{{[]string{"p.id"}, nil}}},
		{"distinct reads the output", ModeFUDJ,
			`SELECT DISTINCT w.year` + spatial,
			[]need{{nil, []string{"w.year"}}}},
		{"aggregate argument", ModeFUDJ,
			`SELECT SUM(p.id), MIN(w.year)` + spatial,
			[]need{{[]string{"p.id"}, []string{"w.year"}}}},
		{"second join keyed on the first join's left input", ModeFUDJ,
			`SELECT COUNT(*) FROM parks p, wildfires w, wildfires f
			 WHERE spatial_join(p.boundary, w.location, 8) AND spatial_join(p.boundary, f.location, 8)`,
			[]need{{[]string{"p.boundary"}, nil}, {nil, nil}}},
		{"later residual and projection reach back through two joins", ModeFUDJ,
			`SELECT w.id, r.id FROM parks p, wildfires w, rides r
			 WHERE spatial_join(p.boundary, w.location, 8) AND r.vendor = p.id AND w.year > r.id`,
			[]need{{[]string{"p.id"}, []string{"w.id", "w.year"}}, {[]string{"w.id", "w.year"}, []string{"r.id"}}}},
		{"unresolvable name requires everything", ModeFUDJ,
			`SELECT id` + spatial, []need{{allParks, allFires}}},
		{"built-in operator also needs its keys", ModeBuiltin,
			`SELECT COUNT(*)` + spatial,
			[]need{{[]string{"p.boundary"}, []string{"w.location"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t, WithJoinMode(tc.mode))
			db.RegisterBuiltinJoin("spatial_join", BuiltinJoinFunc(builtin.SpatialPBSM))
			stmt, err := sqlparse.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := db.plan(stmt.(*sqlparse.Select))
			if err != nil {
				t.Fatal(err)
			}
			if len(p.joins) != len(tc.want) {
				t.Fatalf("plan has %d joins, want %d", len(p.joins), len(tc.want))
			}
			left := p.scans[0].schema
			for i, j := range p.joins {
				names := func(s *types.Schema, cols []int) []string {
					var out []string
					for _, c := range cols {
						out = append(out, s.Fields[c].Name)
					}
					return out
				}
				gotL, gotR := names(left, j.needL), names(p.scans[i+1].schema, j.needR)
				if !reflect.DeepEqual(gotL, tc.want[i].l) || !reflect.DeepEqual(gotR, tc.want[i].r) {
					t.Errorf("step %d: need L=%v R=%v, want L=%v R=%v", i, gotL, gotR, tc.want[i].l, tc.want[i].r)
				}
				if got, want := names(j.out, seq(j.out.Len())), append(gotL, gotR...); !reflect.DeepEqual(got, want) {
					t.Errorf("step %d: out schema %v, want %v", i, got, want)
				}
				left = j.out
			}
		})
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestUnresolvableColumnStillFailsAtExecution: the analysis must not
// turn the binder's error into a different one (or into an answer).
func TestUnresolvableColumnStillFailsAtExecution(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Execute(`SELECT id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`)
	if err == nil || !strings.Contains(err.Error(), `ambiguous column "id"`) {
		t.Fatalf("err = %v, want the binder's ambiguous-column error", err)
	}
}

// sinkJoins are the FUDJ shapes the equivalence matrix crosses: every
// duplicate-handling mode, both theta layouts, and a LocalJoin library.
// from/pred is the FUDJ formulation over aliases a and b, onTop the same
// predicate as a plain expression the NLJ plan evaluates.
var sinkJoins = []struct {
	name       string
	smartTheta bool
	from       string
	pred       string
	onTop      string
}{
	{"spatial-avoidance", false, `parks a, wildfires b`,
		`spatial_join(a.boundary, b.location, 8)`, `st_intersects(a.boundary, b.location)`},
	{"spatial-custom-dedup", false, `parks a, wildfires b`,
		`spatial_refpoint(a.boundary, b.location, 8)`, `st_intersects(a.boundary, b.location)`},
	{"spatial-localjoin", false, `parks a, wildfires b`,
		`spatial_sweep(a.boundary, b.location, 8)`, `st_intersects(a.boundary, b.location)`},
	{"textsim-elimination", false, `reviews a, reviews b`,
		`a.overall = 5 AND b.overall = 4 AND text_similarity_join(a.review, b.review, 0.8)`,
		`a.overall = 5 AND b.overall = 4 AND similarity_jaccard(word_tokens(a.review), word_tokens(b.review)) >= 0.8`},
	{"interval-naive-theta", false, `rides a, rides b`,
		`a.vendor = 1 AND b.vendor = 2 AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
		`a.vendor = 1 AND b.vendor = 2 AND interval_overlapping(a.ride_interval, b.ride_interval)`},
	{"interval-smart-theta", true, `rides a, rides b`,
		`a.vendor = 1 AND b.vendor = 2 AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
		`a.vendor = 1 AND b.vendor = 2 AND interval_overlapping(a.ride_interval, b.ride_interval)`},
}

// sinkShapes are the consumers: each reads a different set of columns
// through a different sink. %[1]s is the FROM list, %[2]s the join
// predicate.
var sinkShapes = []struct {
	name string
	sql  string
}{
	{"count", `SELECT COUNT(*) FROM %[1]s WHERE %[2]s`},
	{"sum-min", `SELECT SUM(a.id), MIN(b.id), AVG(b.id) FROM %[1]s WHERE %[2]s`},
	{"group-having", `SELECT a.id, COUNT(*) AS n, MAX(b.id) FROM %[1]s WHERE %[2]s GROUP BY a.id HAVING MAX(b.id) > 30`},
	{"star", `SELECT * FROM %[1]s WHERE %[2]s`},
	{"two-columns", `SELECT a.id, b.id FROM %[1]s WHERE %[2]s`},
	{"residual-count", `SELECT COUNT(*) FROM %[1]s WHERE %[2]s AND a.id < b.id`},
	{"residual-projection", `SELECT a.id FROM %[1]s WHERE %[2]s AND a.id < b.id`},
	{"post-filter-count", `SELECT COUNT(*) FROM %[1]s WHERE %[2]s AND 1 < 2`},
	{"three-way-fudj-first", `SELECT a.id, b.id, c.id FROM %[1]s, rides c WHERE %[2]s AND c.id < 3`},
	{"three-way-fudj-last", `SELECT c.id, COUNT(*), SUM(b.id) FROM rides c, %[1]s WHERE %[2]s AND c.id < 3 GROUP BY c.id`},
}

// TestSinkEquivalenceMatrix: whatever the consumer reads and whichever
// sink COMBINE feeds, under a budget that spills and through a
// checkpoint recovery, a FUDJ query returns the multiset the on-top
// nested-loop plan returns, and the funnel stays a funnel — the same
// funnel in every configuration.
func TestSinkEquivalenceMatrix(t *testing.T) {
	open := func(t *testing.T, opts ...Option) *Database {
		db := newTestDB(t, opts...)
		for _, ddl := range []string{
			`CREATE JOIN spatial_sweep(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinPlaneSweep" AT spatialjoins`,
			`CREATE JOIN spatial_refpoint(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinReferencePoint" AT spatialjoins`,
		} {
			mustQuery(t, db, ddl)
		}
		return db
	}
	configs := []struct {
		name   string
		budget int64
		kill   bool
	}{
		{"plain", 0, false},
		{"spilling", tinyBudget, false},
		{"checkpointed-kill", 0, true},
		{"spilling+checkpointed-kill", tinyBudget, true},
	}
	oracle := open(t)
	type funnel struct{ candidates, verified, deduped, output int64 }
	plain := make(map[string]funnel) // by join/shape, from the first config
	for _, cfg := range configs {
		opts := []Option{WithMemoryBudget(cfg.budget)}
		if cfg.kill {
			opts = append(opts, WithCheckpoints(), WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))
		}
		db := open(t, opts...)
		for _, j := range sinkJoins {
			db.MustConfigure(WithSmartTheta(j.smartTheta))
			for _, sh := range sinkShapes {
				t.Run(cfg.name+"/"+j.name+"/"+sh.name, func(t *testing.T) {
					want := mustQuery(t, oracle, fmt.Sprintf(sh.sql, j.from, j.onTop))
					if len(want.Rows) == 0 {
						t.Fatal("oracle returned no rows")
					}
					got := mustQuery(t, db, fmt.Sprintf(sh.sql, j.from, j.pred))
					sameRows(t, "fudj vs on-top", got.Rows, want.Rows)
					s := got.Join
					if s.Candidates < s.Verified || s.Verified < s.Output+s.Deduped {
						t.Errorf("funnel broken: candidates=%d verified=%d output=%d deduped=%d",
							s.Candidates, s.Verified, s.Output, s.Deduped)
					}
					// Spilling re-joins buckets and recovery re-runs partitions;
					// neither may count a pair twice.
					f := funnel{s.Candidates, s.Verified, s.Deduped, s.Output}
					if want, ok := plain[j.name+"/"+sh.name]; !ok {
						plain[j.name+"/"+sh.name] = f
					} else if f != want {
						t.Errorf("funnel %+v differs from the plain run's %+v", f, want)
					}
					if cfg.budget > 0 && got.Memory.BytesSpilled == 0 {
						t.Error("tiny budget forced no spilling")
					}
					if cfg.kill && got.Faults.PartitionsRecovered == 0 {
						t.Error("barrier kill recovered no partition from checkpoint")
					}
				})
			}
		}
	}
}

// TestAggregateSinkCountsStayLogical: folding the aggregation into
// COMBINE changes what is built, not what is counted — Output and the
// spans' rows.out are the logical join output either way.
func TestAggregateSinkCountsStayLogical(t *testing.T) {
	db := newTestDB(t)
	const q = ` FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2
		AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`
	rows, err := db.Execute(`SELECT a.id, b.id`+q, Trace())
	if err != nil {
		t.Fatal(err)
	}
	count, err := db.Execute(`SELECT COUNT(*)`+q+` AND a.id < b.id`, Trace())
	if err != nil {
		t.Fatal(err)
	}
	matches := int64(len(rows.Rows))
	if matches == 0 {
		t.Fatal("no matches")
	}
	if rows.Join.Output != matches || rows.Join.Materialized != matches {
		t.Errorf("row sink: Output=%d Materialized=%d, want both %d", rows.Join.Output, rows.Join.Materialized, matches)
	}
	if count.Join.Output != matches {
		t.Errorf("aggregate sink: Output=%d, want the logical join output %d", count.Join.Output, matches)
	}
	if parts := int64(4); count.Join.Materialized == 0 || count.Join.Materialized > parts {
		t.Errorf("aggregate sink: Materialized=%d, want one partial row per partition that saw a match (1..%d)", count.Join.Materialized, parts)
	}
	for _, c := range []struct{ a, b int64 }{
		{count.Join.Candidates, rows.Join.Candidates},
		{count.Join.Verified, rows.Join.Verified},
		{count.Join.Deduped, rows.Join.Deduped},
	} {
		if c.a != c.b {
			t.Errorf("funnel differs between sinks: %d vs %d", c.a, c.b)
		}
	}
	var below int64
	for _, r := range rows.Rows {
		if r[0].Int64() < r[1].Int64() {
			below++
		}
	}
	if got := count.Rows[0][0].Int64(); got != below {
		t.Errorf("COUNT(*) with residual = %d, want %d", got, below)
	}
	count.Trace.Walk(func(_ int, sp *trace.Span) {
		switch {
		case sp.Name() == "COMBINE":
			if sp.Counter("rows.out") != matches || sp.Counter("rows.built") != count.Join.Materialized {
				t.Errorf("COMBINE rows.out=%d rows.built=%d, want %d and %d",
					sp.Counter("rows.out"), sp.Counter("rows.built"), matches, count.Join.Materialized)
			}
		case strings.HasPrefix(sp.Name(), "join "):
			if sp.Counter("rows.out") != below {
				t.Errorf("join rows.out=%d, want the %d rows passing the residual", sp.Counter("rows.out"), below)
			}
		}
	})
	if !strings.Contains(count.Plan, "→ partial aggregate") || strings.Contains(rows.Plan, "→ partial aggregate") {
		t.Errorf("EXPLAIN should name the aggregate sink on the COUNT plan only:\n%s\n%s", count.Plan, rows.Plan)
	}
	if !strings.Contains(count.Plan, "carrying L=[a.id] R=[b.id]") {
		t.Errorf("EXPLAIN should name the carried columns:\n%s", count.Plan)
	}
}

// TestZeroWidthRowsCrossTheShuffle: when nothing downstream of a cross
// join reads a column, the replicated intermediate is rows of width
// zero, which the batch codec carries as a width-0 frame of one pad
// byte per row. The queries must ship frames across the node boundary
// and answer what a single partition — which serializes nothing —
// answers, at the default frame size and at one row per frame.
func TestZeroWidthRowsCrossTheShuffle(t *testing.T) {
	const from = ` FROM parks a, wildfires b, parks c WHERE a.id = 1 AND b.id = 2`
	local := newTestDB(t, WithCluster(1, 1))
	for _, c := range []struct {
		sel  string
		want int64
	}{
		{`SELECT COUNT(*)`, 40}, // 1 park x 1 wildfire x 40 parks
		{`SELECT DISTINCT 1`, 1},
	} {
		want := mustQuery(t, local, c.sel+from)
		if len(want.Rows) != 1 || want.Rows[0][0].Int64() != c.want {
			t.Fatalf("%s on 1x1: rows %v, want one row holding %d", c.sel, want.Rows, c.want)
		}
		if want.Join.Batches != 0 {
			t.Fatalf("%s: the 1x1 reference serialized %d frames", c.sel, want.Join.Batches)
		}
		for _, batchSize := range []int{0, 1} {
			got := mustQuery(t, newTestDB(t, WithBatchSize(batchSize)), c.sel+from)
			sameRows(t, fmt.Sprintf("%s, batch size %d", c.sel, batchSize), got.Rows, want.Rows)
			if got.Join.Batches == 0 {
				t.Errorf("%s, batch size %d: no frame crossed a node boundary", c.sel, batchSize)
			}
		}
	}
}

// TestCountAllocationsFollowInputNotOutput is the deterministic guard
// behind the timing claim: a COUNT(*) over a FUDJ builds nothing per
// match, so doubling both inputs — four times the matches — may double
// the allocations (they follow the records assigned and shuffled) but
// not more. Before the aggregate sink every match cost a joined record
// and a group key, and this ratio was 1.4.
func TestCountAllocationsFollowInputNotOutput(t *testing.T) {
	db := newTestDB(t)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "ride_interval", Kind: types.KindInterval},
	)
	const n = 300
	gen := func(rows int) []types.Record {
		rng := rand.New(rand.NewSource(7))
		recs := make([]types.Record, rows)
		for i := range recs {
			s := rng.Int63n(5000)
			recs[i] = types.Record{types.NewInt64(int64(i)), types.NewInterval(interval.Interval{Start: s, End: s + rng.Int63n(300)})}
		}
		return recs
	}
	for name, rows := range map[string]int{"small": n, "big": 2 * n} {
		if err := db.CreateDataset(name, schema, gen(rows)); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(ds string) (allocs float64, matches int64) {
		sql := fmt.Sprintf(`SELECT COUNT(*) FROM %[1]s a, %[1]s b WHERE overlapping_interval(a.ride_interval, b.ride_interval, 50)`, ds)
		matches = mustQuery(t, db, sql).Rows[0][0].Int64()
		return testing.AllocsPerRun(5, func() { mustQuery(t, db, sql) }), matches
	}
	small, smallMatches := measure("small")
	big, bigMatches := measure("big")
	if bigMatches < 3*smallMatches {
		t.Fatalf("matches grew %d -> %d; the guard needs about 4x", smallMatches, bigMatches)
	}
	perRow := (big / (2 * n)) / (small / n)
	t.Logf("matches %d -> %d, allocations %.0f -> %.0f, per input row x%.2f", smallMatches, bigMatches, small, big, perRow)
	if perRow > 1.3 {
		t.Errorf("allocations per input row grew x%.2f while matches grew x%.1f: COUNT(*) is allocating per match",
			perRow, float64(bigMatches)/float64(smallMatches))
	}
}
