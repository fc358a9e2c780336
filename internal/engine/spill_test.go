package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/types"
)

// tinyBudget is small enough that every example join's COMBINE working
// set exceeds its partition share (forcing spill) while any single
// extended record stays below the hard cap.
const tinyBudget = 4096

// TestBoundedEquivalence is the headline memory-bounding property:
// with a budget far below the working set, every example join spills
// yet produces exactly the unbounded results, and the tracked peak
// never exceeds the budget.
func TestBoundedEquivalence(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		baseline[q.name] = mustQuery(t, db, q.sql).Rows
	}

	db.MustConfigure(WithMemoryBudget(tinyBudget))
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		sameRows(t, q.name+" under budget", res.Rows, baseline[q.name])
		if res.Memory.BytesSpilled == 0 || res.Memory.SpillRuns == 0 {
			t.Errorf("%s: budget %d forced no spilling (spilled=%d runs=%d)",
				q.name, tinyBudget, res.Memory.BytesSpilled, res.Memory.SpillRuns)
		}
		if res.Memory.Peak <= 0 {
			t.Errorf("%s: PeakMemory not tracked", q.name)
		}
		if res.Memory.Peak > tinyBudget {
			t.Errorf("%s: PeakMemory %d exceeds budget %d", q.name, res.Memory.Peak, tinyBudget)
		}
		if res.Memory.Backpressure == 0 {
			t.Errorf("%s: tiny budget cut no shuffle frame short (no backpressure)", q.name)
		}
		t.Logf("%s: peak=%d input=%d spilled=%d runs=%d split=%d bp=%d",
			q.name, res.Memory.Peak, res.Memory.PeakInput, res.Memory.BytesSpilled,
			res.Memory.SpillRuns, res.Memory.BucketsSplit, res.Memory.Backpressure)
	}
}

// TestBoundedSmartThetaEquivalence covers the third COMBINE path: the
// coordinator-scheduled theta operator under a budget.
func TestBoundedSmartThetaEquivalence(t *testing.T) {
	db := newTestDB(t)
	sql := chaosQueries[2].sql // interval join exercises the theta path
	baseline := mustQuery(t, db, sql).Rows

	db.MustConfigure(WithSmartTheta(true))
	db.MustConfigure(WithMemoryBudget(tinyBudget))
	res := mustQuery(t, db, sql)
	sameRows(t, "smart theta under budget", res.Rows, baseline)
	if res.Memory.BytesSpilled == 0 {
		t.Error("smart theta under budget did not spill")
	}
	if res.Memory.Peak > tinyBudget {
		t.Errorf("PeakMemory %d exceeds budget %d", res.Memory.Peak, tinyBudget)
	}
}

// TestBoundedWithFaults composes the budget with PR 1's fault
// injection: spilled, crashed, and retried execution must still match
// the fault-free unbounded baseline.
func TestBoundedWithFaults(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		baseline[q.name] = mustQuery(t, db, q.sql).Rows
	}

	db.MustConfigure(WithMemoryBudget(tinyBudget))
	db.MustConfigure(WithFaults(chaosConfig(42)))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		sameRows(t, q.name+" under budget+chaos", res.Rows, baseline[q.name])
		if res.Faults.Retries == 0 {
			t.Errorf("%s: no retries at crash p=0.2", q.name)
		}
		if res.Memory.BytesSpilled == 0 {
			t.Errorf("%s: no spilling under budget", q.name)
		}
		if res.Memory.Peak > tinyBudget {
			t.Errorf("%s: PeakMemory %d exceeds budget %d", q.name, res.Memory.Peak, tinyBudget)
		}
	}
}

// TestUnboundedUnchanged pins the zero-overhead contract: without a
// budget every memory counter is zero and results are unaffected.
func TestUnboundedUnchanged(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, chaosQueries[0].sql)
	if res.Memory.Peak != 0 || res.Memory.PeakInput != 0 || res.Memory.BytesSpilled != 0 ||
		res.Memory.SpillRuns != 0 || res.Memory.BucketsSplit != 0 || res.Memory.Backpressure != 0 {
		t.Errorf("unbounded run reported memory counters: %+v", res)
	}
	db.MustConfigure(WithMemoryBudget(-5)) // negative clamps to unbounded
	if db.MemoryBudget() != 0 {
		t.Error("negative budget should clamp to 0")
	}
}

// TestBucketSplitOnSkew forces the skew path: every record of a
// self-joining dataset lands in the same buckets, so one bucket's
// build side alone exceeds the partition share and must be chunked.
func TestBucketSplitOnSkew(t *testing.T) {
	db := newTestDB(t)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "grp", Kind: types.KindInt64},
		types.Field{Name: "body", Kind: types.KindString},
	)
	body := strings.Repeat("alpha beta gamma delta ", 4)
	var recs []types.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(int64(i % 2)),
			types.NewString(body), // identical text: one hot bucket
		})
	}
	if err := db.CreateDataset("skewdocs", schema, recs); err != nil {
		t.Fatal(err)
	}
	sql := `
		SELECT a.id, b.id FROM skewdocs a, skewdocs b
		WHERE a.grp = 0 AND b.grp = 1
		  AND text_similarity_join(a.body, b.body, 0.8)`
	baseline := mustQuery(t, db, sql)
	if len(baseline.Rows) != 20*20 {
		t.Fatalf("baseline rows = %d, want 400", len(baseline.Rows))
	}
	db.MustConfigure(WithMemoryBudget(tinyBudget))
	res := mustQuery(t, db, sql)
	sameRows(t, "skew split", res.Rows, baseline.Rows)
	if res.Memory.BucketsSplit == 0 {
		t.Error("hot bucket was not skew-split")
	}
	if res.Memory.Peak > tinyBudget {
		t.Errorf("PeakMemory %d exceeds budget %d", res.Memory.Peak, tinyBudget)
	}
}

// TestResourceErrorOnMonsterRecord pins the irreducible case: a single
// record larger than the per-partition hard cap fails the query with a
// structured, non-retryable ResourceError instead of an OOM.
func TestResourceErrorOnMonsterRecord(t *testing.T) {
	db := newTestDB(t)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "body", Kind: types.KindString},
	)
	recs := []types.Record{
		{types.NewInt64(0), types.NewString("river trail lake")},
		{types.NewInt64(1), types.NewString("river trail lake " + strings.Repeat("x", 64<<10))},
	}
	if err := db.CreateDataset("monster", schema, recs); err != nil {
		t.Fatal(err)
	}
	db.MustConfigure(WithMemoryBudget(tinyBudget)) // hard cap = 2 * 8192/4 = 4096 bytes
	// The join ships its keys as token ranks, a few bytes each, so the
	// monster is the carried body column.
	_, err := db.Execute(`
		SELECT a.body, b.body FROM monster a, monster b
		WHERE text_similarity_join(a.body, b.body, 0.5)`)
	if err == nil {
		t.Fatal("monster record joined within a 4KB hard cap")
	}
	var re *core.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a ResourceError: %v", err)
	}
	if re.Phase != "combine" || re.Bytes <= re.Budget {
		t.Errorf("ResourceError fields: %+v", re)
	}
	if cluster.IsRetryable(err) {
		t.Error("ResourceError must not be retryable")
	}
}

// spillKey is the prepared form of probeCounter's int64 keys: a type raw
// keys never arrive as, so every key the join sees went through Prepare.
type spillKey struct{ v int64 }

// probeCounter runs one equi-join over int64 keys (bucket key%6, a
// custom LocalJoin) and records what a spilled bucket's re-join shows
// the library: how many keys Prepare converted, and the probe group
// size each LocalJoin call received per probe bucket.
type probeCounter struct {
	mu       sync.Mutex
	prepares int
	sizes    map[core.BucketID]map[int]bool // b2 → len(right) of its calls
}

func newProbeCounterDB(t *testing.T) (*Database, *probeCounter) {
	t.Helper()
	db := newTestDB(t)
	pc := &probeCounter{}
	spec := core.Spec[spillKey, spillKey, int64, int64]{
		Name: "probe_counter",
		Prepare: func(raw any) spillKey {
			pc.mu.Lock()
			pc.prepares++
			pc.mu.Unlock()
			return spillKey{raw.(int64)}
		},
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ spillKey, s int64) int64 { return s + 1 },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(l, r int64, _ []any) (int64, error) { return l + r, nil },
		AssignLeft: func(k spillKey, _ int64, dst []core.BucketID) []core.BucketID {
			return append(dst, core.BucketID(k.v%6))
		},
		Verify: func(_ core.BucketID, l spillKey, _ core.BucketID, r spillKey, _ int64) bool { return l == r },
		LocalJoin: func(_ core.BucketID, left []spillKey, b2 core.BucketID, right []spillKey, _ int64, emit func(i, j int)) {
			pc.mu.Lock()
			if pc.sizes[b2] == nil {
				pc.sizes[b2] = make(map[int]bool)
			}
			pc.sizes[b2][len(right)] = true
			pc.mu.Unlock()
			for i, l := range left {
				for j, r := range right {
					if l == r {
						emit(i, j)
					}
				}
			}
		},
	}
	lib := core.NewLibrary("probelib")
	lib.MustRegister("test.ProbeCounter", func() core.Join { return core.Wrap(spec) })
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `CREATE JOIN probe_counter(a: int, b: int) RETURNS boolean AS "test.ProbeCounter" AT probelib`)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "k", Kind: types.KindInt64},
	)
	recs := make([]types.Record, 240)
	for i := range recs {
		recs[i] = types.Record{types.NewInt64(int64(i)), types.NewInt64(int64(i % 40))}
	}
	if err := db.CreateDataset("spillpts", schema, recs); err != nil {
		t.Fatal(err)
	}
	return db, pc
}

// run executes the counter's join under budget and returns the result
// with what the library saw during it.
func (pc *probeCounter) run(t *testing.T, db *Database, budget int64) (*Result, int, map[core.BucketID]map[int]bool) {
	t.Helper()
	pc.prepares, pc.sizes = 0, make(map[core.BucketID]map[int]bool)
	db.MustConfigure(WithMemoryBudget(budget))
	res := mustQuery(t, db, `SELECT a.id, b.id FROM spillpts a, spillpts b WHERE probe_counter(a.k, b.k)`)
	if len(res.Rows) != 40*6*6 {
		t.Fatalf("budget %d: %d rows, want %d", budget, len(res.Rows), 40*6*6)
	}
	if budget > 0 && (res.Memory.SpillRuns == 0 || res.Memory.BucketsSplit == 0) {
		t.Fatalf("budget %d spilled %d runs and split %d buckets, want both", budget, res.Memory.SpillRuns, res.Memory.BucketsSplit)
	}
	if budget > 0 && res.Memory.Peak > budget {
		t.Errorf("PeakMemory %d exceeds budget %d", res.Memory.Peak, budget)
	}
	return res, pc.prepares, pc.sizes
}

// TestSpillLocalJoinSeesWholeProbeGroups pins that a spilling budget
// changes no probe group a custom LocalJoin sees: every call for probe
// bucket b2 receives all of b2's keys, as without a budget, however
// many build chunks the spilled bucket splits into.
func TestSpillLocalJoinSeesWholeProbeGroups(t *testing.T) {
	db, pc := newProbeCounterDB(t)
	plain, _, want := pc.run(t, db, 0)
	for b2, sizes := range want {
		if len(sizes) != 1 {
			t.Fatalf("without a budget probe bucket %d was joined in groups of sizes %v", b2, sizes)
		}
	}
	res, _, got := pc.run(t, db, tinyBudget)
	sameRows(t, "spilling budget", res.Rows, plain.Rows)
	if len(got) != len(want) {
		t.Errorf("LocalJoin saw %d probe buckets under the budget, want %d", len(got), len(want))
	}
	for b2, sizes := range got {
		for n := range sizes {
			if !want[b2][n] {
				t.Errorf("probe bucket %d: a LocalJoin call received %d keys, want %v", b2, n, want[b2])
			}
		}
	}
}

// TestSpillPreparesNoMoreThanUnbounded pins that a spilled bucket
// prepares its probe keys once per task, not once per build chunk: a
// query whose buckets spill and split calls Prepare no more often than
// the same query without a budget.
func TestSpillPreparesNoMoreThanUnbounded(t *testing.T) {
	db, pc := newProbeCounterDB(t)
	_, want, _ := pc.run(t, db, 0)
	_, got, _ := pc.run(t, db, tinyBudget)
	if got > want {
		t.Errorf("Prepare ran %d times under a spilling budget, %d without one", got, want)
	}
}
