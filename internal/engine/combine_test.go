package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/datagen"
	"fudj/internal/geo"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// extRec builds one extended record as PARTITION emits it:
// [bucket_id, key, payload...].
func extRec(bucket, id int, pad string) types.Record {
	return types.Record{types.NewInt64(int64(bucket)), types.NewInt64(int64(id)), types.NewString(pad)}
}

// pairUp returns the test combineFn: every record pair of a matched
// bucket pair becomes one [b1, left id, b2, right id] row appended to
// *out.
func pairUp(out *[]types.Record) combineFn {
	return func(b1 int, ls *bucketGroup, b2 int, rs *bucketGroup) error {
		for _, l := range ls.recs {
			for _, r := range rs.recs {
				*out = append(*out, types.Record{types.NewInt64(int64(b1)), l[1], types.NewInt64(int64(b2)), r[1]})
			}
		}
		return nil
	}
}

// mustPrepare returns g's key column of raw keys, prepared for a join
// that does not rekey, failing t on an error.
func mustPrepare(t *testing.T, g *bucketGroup, box *types.Boxer, prep core.Preparer) []any {
	t.Helper()
	keys, err := g.prepared(box, prep)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// bruteForceCombine is the reference the one loop is held to: the
// build-major walk over bucket pairs, with nothing governed.
func bruteForceCombine(build, probe []types.Record, matches matchFn) []types.Record {
	lBuckets, rBuckets := groupByBucket(build), groupByBucket(probe)
	rIDs := core.SortedIDs(rBuckets)
	var out []types.Record
	combine := pairUp(&out)
	for _, b1 := range core.SortedIDs(lBuckets) {
		for _, b2 := range matches(nil, b1, rIDs) {
			if rs, ok := rBuckets[b2]; ok {
				combine(b1, lBuckets[b1], b2, rs)
			}
		}
	}
	return out
}

// TestCombinePartitionMemoryMatrix drives combinePartition directly over
// {no budget, ample, evicting, one hot bucket} × the three layouts'
// match functions, against the brute-force walk.
func TestCombinePartitionMemoryMatrix(t *testing.T) {
	pad := strings.Repeat("x", 40)
	var build, probe []types.Record
	for i := 0; i < 120; i++ {
		build = append(build, extRec(i%6, i, pad))
	}
	for i := 0; i < 90; i++ {
		probe = append(probe, extRec(i%8, 1000+i, pad)) // buckets 6 and 7 have no build side
	}
	var hotBuild []types.Record // bucket 2 alone outweighs the evicting budget
	for i := 0; i < 120; i++ {
		b := 2
		if i%10 == 0 {
			b = i % 6
		}
		hotBuild = append(hotBuild, extRec(b, i, pad))
	}
	recSize := build[0].MemSize()
	var buildBytes int64
	for _, r := range build {
		buildBytes += r.MemSize()
	}

	owned := map[int][]int{0: {3, 1}, 1: {1}, 2: {7, 2, 0}, 4: {9}, 5: {5, 4}} // bucket 3 owns nothing, 9 is absent
	layouts := []struct {
		name    string
		matches matchFn
	}{
		{"hash", func(dst []int, b1 int, _ []int) []int { return append(dst, b1) }},
		{"match-predicate", func(dst []int, b1 int, probeIDs []int) []int {
			for _, b2 := range probeIDs {
				if d := b1 - b2; d >= -1 && d <= 1 {
					dst = append(dst, b2)
				}
			}
			return dst
		}},
		{"owned-pairs", func(dst []int, b1 int, _ []int) []int { return append(dst, owned[b1]...) }},
	}
	budgets := []struct {
		name      string
		perPart   int64
		build     []types.Record
		wantSpill bool
		wantSplit bool
	}{
		{"none", 0, build, false, false},
		{"ample", 2 * buildBytes, build, false, false},
		{"evicting", 30 * recSize, build, true, false},
		{"hot-bucket", 30 * recSize, hotBuild, true, true},
	}

	for _, lay := range layouts {
		for _, bud := range budgets {
			t.Run(lay.name+"/"+bud.name, func(t *testing.T) {
				tmp := t.TempDir()
				t.Setenv("TMPDIR", tmp)
				want := bruteForceCombine(bud.build, probe, lay.matches)
				if len(want) == 0 {
					t.Fatal("reference walk produced no rows")
				}
				var first []types.Record
				for rep := 0; rep < 20; rep++ {
					clus := cluster.New(cluster.Config{Nodes: 1, CoresPerNode: 1})
					clus.SetMemoryBudget(bud.perPart)
					mem := newMemState(clus)
					var got []types.Record
					err := combinePartition(mem, "test", 0, bud.build, probe, lay.matches, pairUp(&got))
					if err != nil {
						t.Fatal(err)
					}
					m := clus.Metrics().Snapshot()
					if spilled := m.BytesSpilled > 0; spilled != bud.wantSpill {
						t.Fatalf("BytesSpilled = %d, want spilling = %v", m.BytesSpilled, bud.wantSpill)
					}
					if split := m.BucketsSplit > 0; split != bud.wantSplit {
						t.Fatalf("BucketsSplit = %d, want splitting = %v", m.BucketsSplit, bud.wantSplit)
					}
					if bud.perPart == 0 {
						if m.PeakMemory != 0 || m.SpillRuns != 0 {
							t.Fatalf("memory counters moved without a budget: peak=%d runs=%d", m.PeakMemory, m.SpillRuns)
						}
					} else if m.PeakMemory <= 0 || m.PeakMemory > bud.perPart {
						t.Fatalf("PeakMemory = %d, want in (0, %d]", m.PeakMemory, bud.perPart)
					}
					if !bud.wantSpill {
						// The resident state: exactly the build-major walk, and
						// the filesystem never touched.
						if !bytes.Equal(types.EncodeRecords(got), types.EncodeRecords(want)) {
							t.Fatal("resident output is not the build-major walk, row for row")
						}
						if mem.dir != "" {
							t.Fatalf("spill directory %s created though nothing spilled", mem.dir)
						}
					} else {
						sameRows(t, "spilled output", got, want)
						left, err := os.ReadDir(mem.dir)
						if err != nil {
							t.Fatal(err)
						}
						if len(left) != 0 {
							t.Fatalf("%d run files left behind in %s", len(left), mem.dir)
						}
					}
					if rep == 0 {
						first = got
					} else if !bytes.Equal(types.EncodeRecords(got), types.EncodeRecords(first)) {
						t.Fatalf("repeat %d emitted a different row order", rep)
					}
					mem.cleanup()
				}
				if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
					t.Fatalf("%d entries left in TMPDIR after cleanup", len(entries))
				}
			})
		}
	}
	textSimMatrixRows(t)
}

// textSimMatrixRows are the matrix's text-similarity rows, run end to
// end: the join ships its keys rekeyed to token ranks, so the extended
// records' key column is its encoding, framed at batch sizes 1, 7 and
// 1 024, spilled under a budget that evicts a bucket, and checkpointed
// across a barrier kill. Each row must return the brute-force multiset
// (the on-top nested loop over word_tokens) with the default run's
// candidates, verified, deduped and output counts.
func textSimMatrixRows(t *testing.T) {
	ds := datagen.AmazonReview(46, 600)
	open := func(opts ...Option) *Database {
		db := newTestDB(t, opts...)
		if err := db.CreateDataset("manyreviews", ds.Schema, ds.Records); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const from = ` FROM manyreviews a, manyreviews b WHERE a.overall = 5 AND b.overall = 4 AND `
	sql := `SELECT a.id, b.id` + from + `text_similarity_join(a.review, b.review, 0.8)`
	want := mustQuery(t, open(), `SELECT a.id, b.id`+from+
		`similarity_jaccard(word_tokens(a.review), word_tokens(b.review)) >= 0.8`).Rows
	base := mustQuery(t, open(), sql)
	if len(want) == 0 {
		t.Fatal("the brute force found no pair")
	}
	sameRows(t, "textsim default", base.Rows, want)
	kill := &cluster.FaultConfig{Seed: 6, BarrierKills: []cluster.BarrierKill{{Barrier: cluster.BarrierShuffle, Node: 1}}}
	rows := []struct {
		name   string
		opts   []Option
		faults *cluster.FaultConfig
	}{
		{"batch-1", []Option{WithBatchSize(1)}, nil},
		{"batch-7", []Option{WithBatchSize(7)}, nil},
		{"batch-1024", []Option{WithBatchSize(1024)}, nil},
		{"tiny-budget", []Option{WithMemoryBudget(tinyBudget)}, nil},
		{"checkpoint-kill", []Option{WithCheckpoints()}, kill},
	}
	for _, row := range rows {
		t.Run("textsim/"+row.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			db := open(row.opts...)
			if row.faults != nil {
				db.MustConfigure(WithFaults(row.faults))
			}
			res := mustQuery(t, db, sql)
			sameRows(t, row.name, res.Rows, want)
			got := [4]int64{res.Join.Candidates, res.Join.Verified, res.Join.Deduped, res.Join.Output}
			if wantN := [4]int64{base.Join.Candidates, base.Join.Verified, base.Join.Deduped, base.Join.Output}; got != wantN {
				t.Errorf("candidates/verified/deduped/output = %v, want %v", got, wantN)
			}
			if row.name == "tiny-budget" && res.Memory.SpillRuns == 0 {
				t.Error("the budget spilled no bucket")
			}
			if row.faults != nil && (res.Faults.BarrierKills == 0 || res.Faults.PartitionsRecovered == 0) {
				t.Errorf("barrier kills %d, partitions recovered %d: want both", res.Faults.BarrierKills, res.Faults.PartitionsRecovered)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
				t.Errorf("%d entries left in TMPDIR", len(entries))
			}
		})
	}
}

// hookJoin is an int64 equi-join on key%4 buckets whose Divide and
// LocalJoin call out to the test. With match set it is a theta
// (multi-join) FUDJ; without, the optimizer's hash path.
func hookJoin(name string, theta bool, onDivide func(), onLocalJoin func(left, right int)) core.Join {
	s := core.Spec[int64, int64, int64, int64]{
		Name:         name,
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ int64, s int64) int64 { return s + 1 },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide: func(left, right int64, _ []any) (int64, error) {
			if onDivide != nil {
				onDivide()
			}
			return left + right, nil
		},
		AssignLeft: func(key int64, _ int64, dst []core.BucketID) []core.BucketID {
			return append(dst, core.BucketID(key%4))
		},
		Verify: func(_ core.BucketID, l int64, _ core.BucketID, r int64, _ int64) bool { return l == r },
	}
	if theta {
		s.Match = func(b1, b2 core.BucketID) bool { return b1 == b2 }
	}
	if onLocalJoin != nil {
		s.LocalJoin = func(_ core.BucketID, left []int64, _ core.BucketID, right []int64, _ int64, emit func(i, j int)) {
			onLocalJoin(len(left), len(right))
			for i, l := range left {
				for j, r := range right {
					if l == r {
						emit(i, j)
					}
				}
			}
		}
	}
	return core.Wrap(s)
}

// TestBoundedLocalJoinSeesWholeGroups pins that a budget which evicts
// nothing changes nothing a custom local algorithm can observe: the
// same number of LocalJoin calls, over the same group sizes, and the
// same candidate funnel as with no budget at all.
func TestBoundedLocalJoinSeesWholeGroups(t *testing.T) {
	db := newTestDB(t)
	var mu sync.Mutex
	var calls []string
	lib := core.NewLibrary("hooklib")
	lib.MustRegister("test.CountingLocalJoin", func() core.Join {
		return hookJoin("counting_localjoin", false, nil, func(left, right int) {
			mu.Lock()
			calls = append(calls, fmt.Sprintf("%dx%d", left, right))
			mu.Unlock()
		})
	})
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN counting_localjoin(a: int, b: int) RETURNS boolean AS "test.CountingLocalJoin" AT hooklib`); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT a.id, b.id FROM rides a, rides b WHERE counting_localjoin(a.id, b.id)`
	run := func() (*Result, map[string]int) {
		calls = nil
		res := mustQuery(t, db, sql)
		sizes := make(map[string]int)
		for _, c := range calls {
			sizes[c]++
		}
		return res, sizes
	}

	plain, plainSizes := run()
	if len(plain.Rows) != 100 || len(plainSizes) == 0 {
		t.Fatalf("baseline: %d rows, %d LocalJoin calls", len(plain.Rows), len(plainSizes))
	}
	db.MustConfigure(WithMemoryBudget(64 << 20))
	ample, ampleSizes := run()
	sameRows(t, "ample budget", ample.Rows, plain.Rows)
	if ample.Memory.BytesSpilled != 0 {
		t.Fatalf("ample budget spilled %d bytes", ample.Memory.BytesSpilled)
	}
	if !reflect.DeepEqual(ampleSizes, plainSizes) {
		t.Errorf("LocalJoin group sizes under an ample budget = %v, want %v", ampleSizes, plainSizes)
	}
	if ample.Join.Candidates != plain.Join.Candidates || ample.Join.Verified != plain.Join.Verified || ample.Join.Output != plain.Join.Output {
		t.Errorf("funnel under an ample budget = %d/%d/%d, want %d/%d/%d",
			ample.Join.Candidates, ample.Join.Verified, ample.Join.Output,
			plain.Join.Candidates, plain.Join.Verified, plain.Join.Output)
	}
}

// TestSmartThetaConcurrentSwitchKeepsLayout pins that the smart-theta
// switch is read once, at query start: a join whose Divide flips the
// switch on the Database mid-query keeps the layout it started with
// (the balanced layout is recognisable in the span tree by the bucket
// statistics it gathers: its PARTITION span reports rows.pruned, naive
// theta's does not), and only the next query runs under the new setting.
func TestSmartThetaConcurrentSwitchKeepsLayout(t *testing.T) {
	db := newTestDB(t)
	flipTo := true
	lib := core.NewLibrary("fliplib")
	lib.MustRegister("test.FlippingDivide", func() core.Join {
		return hookJoin("flipping_divide", true, func() { db.MustConfigure(WithSmartTheta(flipTo)) }, nil)
	})
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN flipping_divide(a: int, b: int) RETURNS boolean AS "test.FlippingDivide" AT fliplib`); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT a.id, b.id FROM rides a, rides b WHERE flipping_divide(a.id, b.id)`
	balanced := func(res *Result) bool {
		found := false
		res.Trace.Walk(func(_ int, sp *trace.Span) {
			if _, ok := sp.Counters()["rows.pruned"]; ok && sp.Name() == "PARTITION" {
				found = true
			}
		})
		return found
	}

	// Starts naive; Divide turns smart theta on under it.
	res, err := db.Execute(sql, Trace())
	if err != nil {
		t.Fatal(err)
	}
	if balanced(res) {
		t.Error("query started under naive theta gathered bucket statistics (balanced layout)")
	}
	// The next query starts smart; its Divide turns the switch off again.
	flipTo = false
	res2, err := db.Execute(sql, Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !balanced(res2) {
		t.Error("query started under smart theta gathered no bucket statistics (naive layout)")
	}
	sameRows(t, "layouts agree", res.Rows, res2.Rows)
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
}

// TestCombineBucketsAllocatesNothingPerPair pins that COMBINE binds
// nothing per bucket pair: over prepared groups of a theta join whose
// VERIFY rejects every pair, combineBuckets allocates nothing, so a
// closure built per pair cannot come back unseen.
func TestCombineBucketsAllocatesNothingPerPair(t *testing.T) {
	join := core.Wrap(core.Spec[int64, int64, int64, int64]{
		Name:         "reject_all",
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_, s int64) int64 { return s },
		GlobalAgg:    func(a, _ int64) int64 { return a },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(k, _ int64, dst []core.BucketID) []core.BucketID { return append(dst, int(k%4)) },
		Match:        func(_, _ core.BucketID) bool { return true },
		Verify:       func(core.BucketID, int64, core.BucketID, int64, int64) bool { return false },
	})
	var ls, rs bucketGroup
	for i := range 8 {
		ls.add(extRec(1, i, "l"))
		rs.add(extRec(2, 100+i, "r"))
	}
	task := newCombineTask(join, int64(0), join.Descriptor(), 2, combineChunk, newAppendSink())
	mustPrepare(t, &ls, task.box, task.prep)
	mustPrepare(t, &rs, task.box, task.prep)
	allocs := testing.AllocsPerRun(100, func() {
		if err := task.combineBuckets(1, &ls, 2, &rs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("combineBuckets allocated %.1f times per bucket pair, want 0", allocs)
	}
	if task.n.candidates == 0 || task.n.verified != 0 {
		t.Errorf("funnel %d candidates, %d verified: want candidates and no verified pair", task.n.candidates, task.n.verified)
	}
}

// TestCarvedGroupsAllocatePerBucket pins COMBINE's carved groups: over a
// multi-bucket input with every key prepared, grouping a side and the
// whole of combinePartition allocate per distinct bucket, not per row.
// Groups that grew a record slice and a key slice per bucket would
// allocate about twice per doubling of every bucket.
func TestCarvedGroupsAllocatePerBucket(t *testing.T) {
	join := core.Wrap(core.Spec[int64, int64, int64, int64]{
		Name:         "pass",
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_, s int64) int64 { return s },
		GlobalAgg:    func(a, _ int64) int64 { return a },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(k, _ int64, dst []core.BucketID) []core.BucketID { return append(dst, int(k)) },
		Verify:       func(core.BucketID, int64, core.BucketID, int64, int64) bool { return true },
	})
	const buckets = 8
	recs := make([]types.Record, 4096)
	for i := range recs {
		recs[i] = extRec(i%buckets, i%200, "r") // ids below 256 box without allocating
	}
	bound := float64(3 * buckets)
	box, prep := types.NewBoxer(combineChunk), core.NewPreparer(join, combineChunk)

	grouped := testing.AllocsPerRun(20, func() {
		groups := groupByBucket(recs)
		for _, g := range groups {
			if len(mustPrepare(t, g, box, prep)) != len(recs)/buckets {
				t.Fatal("group lost records")
			}
		}
	})
	if grouped > bound {
		t.Errorf("groupByBucket allocated %.0f times over %d rows in %d buckets, want at most %.0f", grouped, len(recs), buckets, bound)
	}

	mem := newMemState(cluster.New(cluster.Config{Nodes: 1, CoresPerNode: 1}))
	hash := func(dst []int, b1 int, _ []int) []int { return append(dst, b1) }
	var pairs int
	combine := func(_ int, ls *bucketGroup, _ int, rs *bucketGroup) error {
		pairs += len(mustPrepare(t, ls, box, prep)) * len(mustPrepare(t, rs, box, prep))
		return nil
	}
	combined := testing.AllocsPerRun(20, func() {
		if err := combinePartition(mem, "test", 0, recs, recs, hash, combine); err != nil {
			t.Fatal(err)
		}
	})
	if combined > 2*bound {
		t.Errorf("combinePartition allocated %.0f times over %d rows per side in %d buckets, want at most %.0f", combined, len(recs), buckets, 2*bound)
	}
	if pairs == 0 {
		t.Error("combinePartition joined no bucket pair")
	}
}

// TestPointKeysBoxPerChunk is TestCarvedGroupsAllocatePerBucket over
// point keys, which the runtime boxes with an allocation of its own:
// grouping them and preparing them through a COMBINE task's Boxer
// allocates per bucket and per slab chunk, not per row. Boxing each key
// with Value.Native allocates once per row, 4 096 times here.
func TestPointKeysBoxPerChunk(t *testing.T) {
	join := core.Wrap(core.Spec[geo.Point, geo.Point, int64, int64]{
		Name:         "pass_points",
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ geo.Point, s int64) int64 { return s },
		GlobalAgg:    func(a, _ int64) int64 { return a },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(k geo.Point, _ int64, dst []core.BucketID) []core.BucketID { return append(dst, int(k.X)) },
		Verify:       func(core.BucketID, geo.Point, core.BucketID, geo.Point, int64) bool { return true },
	})
	const buckets = 8
	recs := make([]types.Record, 4096)
	for i := range recs {
		b := i % buckets
		recs[i] = types.Record{types.NewInt64(int64(b)), types.NewPoint(geo.Point{X: float64(b), Y: float64(i)}), types.NewString("r")}
	}
	chunks := (len(recs) + combineChunk - 1) / combineChunk
	bound := float64(3*buckets + chunks + 1) // + 1: the Boxer itself

	allocs := testing.AllocsPerRun(20, func() {
		box, prep := types.NewBoxer(combineChunk), core.NewPreparer(join, combineChunk)
		for _, g := range groupByBucket(recs) {
			keys := mustPrepare(t, g, box, prep)
			if len(keys) != len(recs)/buckets {
				t.Fatal("group lost records")
			}
			for i, k := range keys {
				if k.(geo.Point) != g.recs[i][1].Point() {
					t.Fatalf("key %d = %v, want %v", i, k, g.recs[i][1].Point())
				}
			}
		}
	})
	if allocs > bound {
		t.Errorf("grouping and preparing %d point keys in %d buckets allocated %.0f times, want at most %.0f", len(recs), buckets, allocs, bound)
	}
}

// TestSpatialJoinAllocatesBelowOnePerPoint bounds a whole spatial_join
// query by its point side: boxing every wildfire's location at SUMMARIZE
// and again at COMBINE, one allocation each, would cost about two per
// point; from slabs the whole query allocates fewer objects than it has
// points.
func TestSpatialJoinAllocatesBelowOnePerPoint(t *testing.T) {
	db := newTestDB(t)
	const n = 4000
	rng := rand.New(rand.NewSource(11))
	fires := make([]types.Record, n)
	for i := range fires {
		fires[i] = types.Record{types.NewInt64(int64(i)), types.NewPoint(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})}
	}
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "location", Kind: types.KindPoint},
	)
	if err := db.CreateDataset("manyfires", schema, fires); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT COUNT(*) FROM parks p, manyfires w WHERE spatial_join(p.boundary, w.location, 8)`
	if got := mustQuery(t, db, sql).Rows[0][0].Int64(); got == 0 {
		t.Fatal("the join matched no point; the bound needs a working join")
	}
	allocs := testing.AllocsPerRun(5, func() { mustQuery(t, db, sql) })
	t.Logf("%.0f allocations per query over %d points", allocs, n)
	if allocs >= n {
		t.Errorf("spatial_join over %d points allocated %.0f objects per query, want fewer than one per point", n, allocs)
	}
}

// TestTextSimilarityJoinAllocatesBelowTwoPerReview bounds a whole
// text_similarity_join query by its input: preparing every review's
// token set at SUMMARIZE and rekeying it to its ranks at ASSIGN cost
// one allocation each, and the shipped keys, their decoding in
// COMBINE, the key boxing, the string columns and the decoded
// summaries and plan cost none per review, so the query allocates
// fewer than two objects per input review. Boxing each prepared key,
// copying each decoded string or allocating each decoded key's ranks
// would cost several more per review.
func TestTextSimilarityJoinAllocatesBelowTwoPerReview(t *testing.T) {
	db := newTestDB(t)
	const n = 4000
	ds := datagen.AmazonReview(7, n)
	if err := db.CreateDataset("manyreviews", ds.Schema, ds.Records); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT a.id, b.id FROM manyreviews a, manyreviews b WHERE a.overall = 5 AND b.overall = 4 AND text_similarity_join(a.review, b.review, 0.9)`
	if got := len(mustQuery(t, db, sql).Rows); got == 0 {
		t.Fatal("the join matched no pair; the bound needs a working join")
	}
	allocs := testing.AllocsPerRun(5, func() { mustQuery(t, db, sql) })
	t.Logf("%.0f allocations per query over %d reviews", allocs, n)
	if allocs >= 2*n {
		t.Errorf("text_similarity_join over %d reviews allocated %.0f objects per query, want fewer than two per review", n, allocs)
	}
}

// TestRecordArenaKeepsNeighbours pins PARTITION's carved records: each
// is full at cap == len, so appending to one copies it and leaves its
// neighbour in the chunk unchanged, across chunk boundaries too.
func TestRecordArenaKeepsNeighbours(t *testing.T) {
	a := recordArena{width: 3, rows: 64}
	recs := make([]types.Record, 150)
	for i := range recs {
		recs[i] = append(a.next(), types.NewInt64(int64(i)), types.NewInt64(int64(-i)), types.NewString("x"))
		if len(recs[i]) != 3 || cap(recs[i]) != 3 {
			t.Fatalf("record %d: len %d cap %d, want 3 and 3", i, len(recs[i]), cap(recs[i]))
		}
	}
	for i := range recs {
		grown := append(recs[i], types.NewString("extra"))
		grown[0] = types.NewInt64(-1)
	}
	for i, r := range recs {
		if r[0].Int64() != int64(i) || r[1].Int64() != int64(-i) || r[2].Str() != "x" {
			t.Fatalf("record %d changed to %v after appending to its neighbours", i, r)
		}
	}
}
