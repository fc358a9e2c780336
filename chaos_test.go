// Degraded-execution acceptance for every join library, through the
// public API: each of the five libraries runs its query on a faulted
// cluster, under a memory budget far below its working set, and across
// barrier kills with checkpoints on, and must return the multiset a
// fault-free run returns. One table row per library: how to build its
// datasets, its CREATE JOIN, its query, and the fault seed and straggler
// node of its equivalence run. The fourth table, TestUDFPanicMatrix,
// makes every core.Join method of every library class panic in turn,
// and a Wrap-built join's Spec.Rekey.
package fudj_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fudj"
	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/wire"
)

var idField = fudj.Field{Name: "id", Kind: fudj.KindInt64}

// chaosPoints is n random points over a span×span square.
func chaosPoints(rng *rand.Rand, n int, span float64) []fudj.Record {
	recs := make([]fudj.Record, n)
	for i := range recs {
		p := fudj.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		recs[i] = fudj.Record{fudj.NewInt64(int64(i)), fudj.NewPointValue(p)}
	}
	return recs
}

type chaosLibrary struct {
	name      string
	lib       func() *fudj.Library
	build     func(t *testing.T, db *fudj.DB)
	ddl       string
	query     string
	seed      int64 // fault seed of the equivalence run
	straggler int   // its straggler node
}

var chaosLibraries = []chaosLibrary{
	{
		name: "spatial", lib: fudj.SpatialLibrary, seed: 2, straggler: 1,
		build: func(t *testing.T, db *fudj.DB) {
			rng := rand.New(rand.NewSource(4))
			var parks []fudj.Record
			for i := 0; i < 30; i++ {
				x, y := rng.Float64()*80, rng.Float64()*80
				w, h := rng.Float64()*10+1, rng.Float64()*10+1
				poly := fudj.NewPolygon([]fudj.Point{
					{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h},
				})
				parks = append(parks, fudj.Record{fudj.NewInt64(int64(i)), fudj.NewPolygonValue(poly)})
			}
			chaosDataset(t, db, "parks", fudj.Field{Name: "boundary", Kind: fudj.KindPolygon}, parks)
			chaosDataset(t, db, "fires", fudj.Field{Name: "location", Kind: fudj.KindPoint}, chaosPoints(rng, 90, 90))
		},
		ddl:   `CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		query: `SELECT p.id, f.id FROM parks p, fires f WHERE spatial_join(p.boundary, f.location, 8)`,
	},
	{
		name: "interval", lib: fudj.IntervalLibrary, seed: 5, straggler: 0,
		build: func(t *testing.T, db *fudj.DB) {
			rng := rand.New(rand.NewSource(6))
			var rides []fudj.Record
			for i := 0; i < 90; i++ {
				s := rng.Int63n(4000)
				rides = append(rides, fudj.Record{
					fudj.NewInt64(int64(i)),
					fudj.NewInt64(1 + int64(rng.Intn(2))),
					fudj.NewIntervalValue(fudj.Interval{Start: s, End: s + rng.Int63n(400)}),
				})
			}
			if err := db.CreateDataset("rides", fudj.NewSchema(idField,
				fudj.Field{Name: "vendor", Kind: fudj.KindInt64},
				fudj.Field{Name: "ride_interval", Kind: fudj.KindInterval}), rides); err != nil {
				t.Fatal(err)
			}
		},
		ddl: `CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
		query: `SELECT n1.id, n2.id FROM rides n1, rides n2
			WHERE n1.vendor = 1 AND n2.vendor = 2
			  AND overlapping_interval(n1.ride_interval, n2.ride_interval, 50)`,
	},
	{
		name: "textsim", lib: fudj.TextSimilarityLibrary, seed: 3, straggler: 2,
		build: func(t *testing.T, db *fudj.DB) {
			rng := rand.New(rand.NewSource(8))
			words := []string{"river", "scenic", "camping", "trail", "lake", "forest", "desert", "historic"}
			var reviews []fudj.Record
			for i := 0; i < 70; i++ {
				ws := make([]string, 3+rng.Intn(4))
				for j := range ws {
					ws[j] = words[rng.Intn(len(words))]
				}
				reviews = append(reviews, fudj.Record{fudj.NewInt64(int64(i)), fudj.NewString(strings.Join(ws, " "))})
			}
			chaosDataset(t, db, "reviews", fudj.Field{Name: "review", Kind: fudj.KindString}, reviews)
		},
		ddl: `CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		query: `SELECT r1.id, r2.id FROM reviews r1, reviews r2
			WHERE r1.id < r2.id AND text_similarity_join(r1.review, r2.review, 0.7)`,
	},
	{
		name: "distance", lib: fudj.DistanceLibrary, seed: 2, straggler: 1,
		build: func(t *testing.T, db *fudj.DB) {
			rng := rand.New(rand.NewSource(10))
			loc := fudj.Field{Name: "location", Kind: fudj.KindPoint}
			chaosDataset(t, db, "depots", loc, chaosPoints(rng, 60, 90))
			chaosDataset(t, db, "calls", loc, chaosPoints(rng, 90, 90))
		},
		ddl:   `CREATE JOIN points_within(a: point, b: point, d: double) RETURNS boolean AS "knn.PointsWithin" AT distancejoins`,
		query: `SELECT d.id, c.id FROM depots d, calls c WHERE points_within(d.location, c.location, 9.0)`,
	},
	{
		name: "trajectory", lib: fudj.TrajectoryLibrary, seed: 2, straggler: 1,
		build: func(t *testing.T, db *fudj.DB) {
			rng := rand.New(rand.NewSource(12))
			var trips []fudj.Record
			for i := 0; i < 80; i++ {
				pts := []fudj.Point{{X: rng.Float64() * 80, Y: rng.Float64() * 80}}
				for len(pts) < 4 {
					last := pts[len(pts)-1]
					pts = append(pts, fudj.Point{X: last.X + rng.Float64()*6 - 3, Y: last.Y + rng.Float64()*6 - 3})
				}
				trips = append(trips, fudj.Record{fudj.NewInt64(int64(i)), fudj.NewLineStringValue(fudj.NewLineString(pts))})
			}
			chaosDataset(t, db, "trips", fudj.Field{Name: "route", Kind: fudj.KindLineString}, trips)
		},
		ddl: `CREATE JOIN traj_close(a: linestring, b: linestring, n: int, d: double) RETURNS boolean AS "traj.ClosenessJoin" AT trajjoins`,
		query: `SELECT a.id, b.id FROM trips a, trips b
			WHERE a.id < b.id AND traj_close(a.route, b.route, 8, 4.0)`,
	},
}

// chaosDataset loads one (id, key) dataset.
func chaosDataset(t *testing.T, db *fudj.DB, name string, key fudj.Field, recs []fudj.Record) {
	t.Helper()
	if err := db.CreateDataset(name, fudj.NewSchema(idField, key), recs); err != nil {
		t.Fatal(err)
	}
}

// forEachChaosLibrary runs fn once per library, as a subtest, against a
// fresh 3×2 database holding that library's datasets and join, with the
// fault-free answer to its query. Each row gets its own TMPDIR, which
// must be empty once fn returns: no spill run or checkpoint may outlive
// its query.
func forEachChaosLibrary(t *testing.T, fn func(t *testing.T, db *fudj.DB, l chaosLibrary, clean []fudj.Record)) {
	for _, l := range chaosLibraries {
		t.Run(l.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			db := fudj.MustOpen(fudj.WithCluster(3, 2))
			l.build(t, db)
			if err := db.InstallLibrary(l.lib()); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Execute(l.ddl); err != nil {
				t.Fatal(err)
			}
			clean, err := db.Execute(l.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(clean.Rows) == 0 {
				t.Fatal("fault-free run produced no rows")
			}
			fn(t, db, l, clean.Rows)
			if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
				t.Errorf("%d entries left in TMPDIR (err %v): %v", len(left), err, left)
			}
		})
	}
}

// sameMultiset requires chaos to contain exactly the rows of clean
// (every chaos query projects an id pair, so rowKeys orders both).
func sameMultiset(t *testing.T, clean, chaos []fudj.Record) {
	t.Helper()
	if got, want := rowKeys(t, chaos), rowKeys(t, clean); !slices.Equal(got, want) {
		t.Fatalf("degraded run (%d rows) is not the baseline's multiset (%d rows)", len(got), len(want))
	}
}

var chaosRetries = fudj.RetryPolicy{
	MaxAttempts: 8,
	BaseBackoff: 50 * time.Microsecond,
	MaxBackoff:  time.Millisecond,
}

// TestChaosEquivalence runs each join end-to-end on a faulted cluster
// (crashes, a straggler node, shuffle corruption) and requires the
// results to match a fault-free run exactly.
func TestChaosEquivalence(t *testing.T) {
	forEachChaosLibrary(t, func(t *testing.T, db *fudj.DB, l chaosLibrary, clean []fudj.Record) {
		retries := chaosRetries
		retries.SpeculativeAfter = 2 * time.Millisecond
		db.MustConfigure(fudj.WithRetryPolicy(retries), fudj.WithFaults(&fudj.FaultConfig{
			Seed:           l.seed,
			CrashProb:      0.2,
			StragglerNodes: []int{l.straggler},
			StragglerDelay: 10 * time.Millisecond,
			CorruptProb:    0.05,
		}))
		chaos, err := db.Execute(l.query)
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		if chaos.Faults.Retries == 0 {
			t.Error("no retries recorded under injected crashes")
		}
		sameMultiset(t, clean, chaos.Rows)
	})
}

// TestBucketPruningConserves checks the hash layout's bucket pruning on
// every DefaultMatch library of the table: each assigned record is
// either pruned before the exchange (its bucket is one the other side
// never reached) or delivered to COMBINE, and the join funnel is the
// one the unpruned exchange produced (the want values are the counts
// every record shipped gave, before pruning existed). The cluster's
// shuffle_records counts only the delivered records that cross a node,
// so it is bounded by the delivered count, not equal to it.
func TestBucketPruningConserves(t *testing.T) {
	// The pruned counts: textsim's row is a self-join over one
	// unfiltered dataset with one assign for both sides, so both sides
	// reach exactly the same buckets and nothing may be pruned; the
	// trajectory join assigns its left side to an expanded MBR, so a
	// self-join still has buckets only the left side reaches.
	funnels := map[string]struct {
		funnel [3]int64 // candidates, verified, output
		pruned int64
	}{
		"spatial":    {[3]int64{103, 23, 23}, 38},
		"textsim":    {[3]int64{2181, 287, 228}, 0},
		"trajectory": {[3]int64{760, 323, 204}, 8},
	}
	forEachChaosLibrary(t, func(t *testing.T, db *fudj.DB, l chaosLibrary, _ []fudj.Record) {
		res, err := db.Execute(l.query, fudj.Trace())
		if err != nil {
			t.Fatal(err)
		}
		var assigned, delivered, shuffled int64
		pruned := int64(-1)
		res.Trace.Walk(func(_ int, sp *fudj.Span) {
			switch sp.Name() {
			case "PARTITION":
				assigned = sp.Counter("rows.out")
				if n, ok := sp.Counters()["rows.pruned"]; ok {
					pruned = n
				}
			case "COMBINE":
				delivered = sp.Counter("rows.in")
				for _, ex := range sp.Children() {
					shuffled += ex.Counter("shuffle.records")
				}
			}
		})
		want, hash := funnels[l.name]
		if !hash {
			if pruned >= 0 {
				t.Errorf("theta MATCH reported rows.pruned=%d; only the hash layout prunes", pruned)
			}
			return
		}
		if pruned+delivered != assigned {
			t.Errorf("rows.pruned %d + COMBINE rows.in %d != PARTITION rows.out %d", pruned, delivered, assigned)
		}
		if shuffled > delivered {
			t.Errorf("shuffle.records %d exceeds the %d records delivered", shuffled, delivered)
		}
		if pruned != want.pruned {
			t.Errorf("rows.pruned = %d, want %d", pruned, want.pruned)
		}
		if got := [3]int64{res.Join.Candidates, res.Join.Verified, res.Join.Output}; got != want.funnel {
			t.Errorf("candidates/verified/output = %v, want %v", got, want.funnel)
		}
	})
}

// TestMemoryBoundedChaos degrades each join twice over: a budget far
// below the working set (forcing spill-to-disk COMBINE) plus 20% task
// crashes. Results must still match the unbounded fault-free run.
func TestMemoryBoundedChaos(t *testing.T) {
	forEachChaosLibrary(t, func(t *testing.T, db *fudj.DB, l chaosLibrary, clean []fudj.Record) {
		const budget = 12288 // 2KB per partition on 6 partitions
		db.MustConfigure(fudj.WithMemoryBudget(budget), fudj.WithRetryPolicy(chaosRetries),
			fudj.WithFaults(&fudj.FaultConfig{Seed: 9, CrashProb: 0.2}))
		bounded, err := db.Execute(l.query)
		if err != nil {
			t.Fatalf("memory-bounded chaos run failed: %v", err)
		}
		sameMultiset(t, clean, bounded.Rows)
		if bounded.Memory.BytesSpilled == 0 || bounded.Memory.SpillRuns == 0 {
			t.Errorf("budget %d forced no spilling (spilled=%d runs=%d)",
				budget, bounded.Memory.BytesSpilled, bounded.Memory.SpillRuns)
		}
		if bounded.Faults.Retries == 0 {
			t.Error("no retries recorded under injected crashes")
		}
		if bounded.Memory.Peak <= 0 || bounded.Memory.Peak > budget {
			t.Errorf("PeakMemory %d outside (0, %d]", bounded.Memory.Peak, budget)
		}
		t.Logf("peak=%d spilled=%d runs=%d split=%d retries=%d",
			bounded.Memory.Peak, bounded.Memory.BytesSpilled, bounded.Memory.SpillRuns,
			bounded.Memory.BucketsSplit, bounded.Faults.Retries)
	})
}

// TestCheckpointRecovery is the checkpointed-execution acceptance for
// each join: a node killed at either phase barrier, with durable
// checkpoints on, must converge to the multiset-identical fault-free
// answer with the lost partitions restored from checkpoint — and with
// every checkpoint write damaged, the corruption must be detected and
// healed by recomputation instead.
func TestCheckpointRecovery(t *testing.T) {
	forEachChaosLibrary(t, func(t *testing.T, db *fudj.DB, l chaosLibrary, clean []fudj.Record) {
		db.MustConfigure(fudj.WithCheckpoints())
		for _, kill := range []struct {
			name string
			b    fudj.Barrier
		}{
			{"plan", fudj.BarrierPlan},
			{"shuffle", fudj.BarrierShuffle},
		} {
			t.Run(kill.name, func(t *testing.T) {
				db.MustConfigure(fudj.WithFaults(&fudj.FaultConfig{
					Seed:         6,
					BarrierKills: []fudj.BarrierKill{{Barrier: kill.b, Node: 1}},
				}))
				res, err := db.Execute(l.query)
				if err != nil {
					t.Fatalf("barrier-kill run failed: %v", err)
				}
				sameMultiset(t, clean, res.Rows)
				if res.Faults.BarrierKills == 0 {
					t.Error("no barrier kill fired")
				}
				if res.Faults.PartitionsRecovered == 0 {
					t.Error("no partitions recovered from checkpoint")
				}
				if res.Faults.CheckpointBytes == 0 {
					t.Error("no checkpoint bytes written")
				}
			})
		}

		t.Run("damaged", func(t *testing.T) {
			db.MustConfigure(fudj.WithFaults(&fudj.FaultConfig{
				Seed:          6,
				BarrierKills:  []fudj.BarrierKill{{Barrier: fudj.BarrierShuffle, Node: 1}},
				TornWriteProb: 1,
			}))
			res, err := db.Execute(l.query)
			if err != nil {
				t.Fatalf("damaged-checkpoint run failed: %v", err)
			}
			sameMultiset(t, clean, res.Rows)
			if res.Faults.CheckpointsDiscarded == 0 {
				t.Error("no damaged checkpoints discarded at torn-write p=1")
			}
		})
	})
}

// TestUDFPanicMatrix is the engine's panic-isolation guarantee: library
// code is untrusted, so a panic in any core.Join method (or in the
// class constructor) fails the statement with a *fudj.UDFError, never
// the process. Every class shape of the five libraries runs under every
// layout; a clean run counts the calls each method gets, then one run
// per method panics on its first call and one on its last. Each such
// run must fail with a UDFError naming the expected phase and place,
// carrying a stack, without a retry, leaving TMPDIR empty and the DB
// answering the clean multiset afterwards.
func TestUDFPanicMatrix(t *testing.T) {
	methods := []string{"New"} // the constructor, then core.Join's method set
	joinType := reflect.TypeFor[fudj.Join]()
	for i := 0; i < joinType.NumMethod(); i++ {
		methods = append(methods, joinType.Method(i).Name)
	}
	raised := make(map[string]bool)
	for _, s := range udfShapes {
		l := chaosLib(t, s.lib)
		ctor, err := l.lib().Resolve(s.class)
		if err != nil {
			t.Fatal(err)
		}
		desc := ctor().Descriptor()
		for _, lay := range udfLayouts {
			t.Run(s.class+"/"+lay.name, func(t *testing.T) {
				tmp := t.TempDir()
				t.Setenv("TMPDIR", tmp)
				p := &udfProbe{calls: make(map[string]*atomic.Int64)}
				for _, m := range methods {
					p.calls[m] = new(atomic.Int64)
				}
				lib := fudj.NewLibrary("panicjoins")
				lib.MustRegister("panic.Join", func() fudj.Join {
					p.hit("New")
					return panicJoin{p, ctor()}
				})
				db := fudj.MustOpen(fudj.WithCluster(3, 2), fudj.WithRetryPolicy(chaosRetries), lay.opt)
				l.build(t, db)
				if err := db.InstallLibrary(lib); err != nil {
					t.Fatal(err)
				}
				ddl, _, _ := strings.Cut(l.ddl, " AS ")
				ddl += ` AS "panic.Join" AT panicjoins`
				name, _, _ := strings.Cut(strings.TrimPrefix(ddl, "CREATE JOIN "), "(")
				res := p.cleanRun(t, db, ddl, name, l.query)
				if lay.name == "budget" && res.Memory.SpillRuns == 0 {
					t.Error("the budget forced no spilling")
				}
				clean := res.Rows
				counts := make(map[string]int64)
				for _, m := range methods {
					counts[m] = p.calls[m].Load()
				}
				for _, m := range methods {
					if counts[m] == 0 {
						continue // this shape never calls m
					}
					for _, nth := range slices.Compact([]int64{1, counts[m]}) {
						want := udfSiteOf(m, nth == 1, desc, lay.smart)
						p.arm(m, nth)
						_, err := db.Execute(ddl)
						atDDL := err != nil
						if err == nil {
							_, err = db.Execute(l.query)
						}
						p.arm("", 0)
						checkUDFError(t, fmt.Sprintf("%s call %d", m, nth), err, name, m+" boom", want)
						raised[m] = true
						if atDDL != (want.phase == "create" && nth == 1) {
							t.Errorf("%s call %d: failed at CREATE JOIN = %v", m, nth, atDDL)
						}
						if atDDL {
							if _, err := db.Execute(ddl); err != nil {
								t.Fatalf("CREATE JOIN after a panic in it: %v", err)
							}
						}
						after, err := db.Execute(l.query)
						if err != nil {
							t.Fatalf("query after a %s panic: %v", m, err)
						}
						sameMultiset(t, clean, after.Rows)
						if _, err := db.Execute("DROP JOIN " + name); err != nil {
							t.Fatal(err)
						}
					}
				}
				if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
					t.Errorf("%d entries left in TMPDIR (err %v): %v", len(left), err, left)
				}
			})
		}
	}
	t.Run("builtin", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		l := chaosLib(t, "spatial")
		db := fudj.MustOpen(fudj.WithCluster(3, 2), fudj.WithRetryPolicy(chaosRetries), fudj.WithJoinMode(fudj.ModeBuiltin))
		l.build(t, db)
		if err := db.InstallLibrary(l.lib()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Execute(l.ddl); err != nil {
			t.Fatal(err)
		}
		var armed atomic.Bool
		db.RegisterBuiltinJoin("spatial_join", func(c *cluster.Cluster, left cluster.Data, lkey expr.Evaluator,
			right cluster.Data, rkey expr.Evaluator, params []fudj.Value) (cluster.Data, error) {
			if armed.Load() {
				panic("builtin boom")
			}
			return fudj.BuiltinSpatialPBSM(c, left, lkey, right, rkey, params)
		})
		clean, err := db.Execute(l.query)
		if err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		_, err = db.Execute(l.query)
		armed.Store(false)
		checkUDFError(t, "builtin", err, "spatial_join", "builtin boom", udfSite{phase: "builtin", coord: true})
		after, err := db.Execute(l.query)
		if err != nil {
			t.Fatalf("query after a builtin panic: %v", err)
		}
		sameMultiset(t, clean.Rows, after.Rows)
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Errorf("%d entries left in TMPDIR (err %v): %v", len(left), err, left)
		}
	})
	t.Run("rekey", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		l := chaosLib(t, "textsim")
		p := &udfProbe{calls: map[string]*atomic.Int64{"Rekey": new(atomic.Int64)}}
		lib := fudj.NewLibrary("rekeyjoins")
		lib.MustRegister("rekey.SameLength", func() fudj.Join { return sameLengthJoin(p) })
		db := fudj.MustOpen(fudj.WithCluster(3, 2), fudj.WithRetryPolicy(chaosRetries))
		l.build(t, db)
		if err := db.InstallLibrary(lib); err != nil {
			t.Fatal(err)
		}
		const ddl = `CREATE JOIN same_length(a: string, b: string) RETURNS boolean AS "rekey.SameLength" AT rekeyjoins`
		const query = `SELECT r1.id, r2.id FROM reviews r1, reviews r2 WHERE r1.id < r2.id AND same_length(r1.review, r2.review)`
		clean := p.cleanRun(t, db, ddl, "same_length", query).Rows
		for _, nth := range slices.Compact([]int64{1, p.calls["Rekey"].Load()}) {
			p.arm("Rekey", nth)
			if _, err := db.Execute(ddl); err != nil {
				t.Fatal(err)
			}
			_, err := db.Execute(query)
			p.arm("", 0)
			what := fmt.Sprintf("Rekey call %d", nth)
			checkUDFError(t, what, err, "same_length", "Rekey boom", udfSite{phase: "assign", record: true})
			// The first call is some assign task's first record.
			if ue := (*fudj.UDFError)(nil); errors.As(err, &ue) && nth == 1 && ue.Record != 0 {
				t.Errorf("%s: record %d, want 0", what, ue.Record)
			}
			after, err := db.Execute(query)
			if err != nil {
				t.Fatalf("query after a Rekey panic: %v", err)
			}
			sameMultiset(t, clean, after.Rows)
			if _, err := db.Execute("DROP JOIN same_length"); err != nil {
				t.Fatal(err)
			}
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Errorf("%d entries left in TMPDIR (err %v): %v", len(left), err, left)
		}
	})
	for _, m := range methods {
		if !raised[m] {
			t.Errorf("no row saw a panic in %s come back as a UDFError", m)
		}
	}
}

// lengthKey is sameLengthJoin's key: a review's length in bytes.
type lengthKey struct{ n int64 }

func (k lengthKey) MarshalWire(e *wire.Encoder) { e.Varint(k.n) }

func (k *lengthKey) UnmarshalWire(d *wire.Decoder) (err error) {
	k.n, err = d.Varint()
	return err
}

// sameLengthJoin pairs reviews of equal length. Its Spec.Rekey, a hook
// inside the Wrap-built join rather than a core.Join method, calls the
// probe, so the matrix can make it panic.
func sameLengthJoin(p *udfProbe) fudj.Join {
	return fudj.Wrap(fudj.Spec[lengthKey, lengthKey, int64, int64]{
		Name:    "same_length",
		Prepare: func(raw any) lengthKey { return lengthKey{int64(len(raw.(string)))} },
		Rekey: func(k lengthKey, _ int64, _ lengthKey) lengthKey {
			p.hit("Rekey")
			return k
		},
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ lengthKey, s int64) int64 { return s + 1 },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(l, r int64, _ []any) (int64, error) { return l + r, nil },
		AssignLeft: func(k lengthKey, _ int64, dst []fudj.BucketID) []fudj.BucketID {
			return append(dst, int(k.n))
		},
		Verify: func(_ fudj.BucketID, l lengthKey, _ fudj.BucketID, r lengthKey, _ int64) bool { return l == r },
	})
}

// udfShapes covers every registered class shape of the five libraries
// (the Auto classes share the shapes of the classes they tune), each
// run on its library's chaos table row (datasets, query, DDL
// signature).
var udfShapes = []struct{ lib, class string }{
	{"spatial", "pbsm.SpatialJoin"},                           // default match, avoidance
	{"spatial", "pbsm.SpatialJoinReferencePoint"},             // custom dedup
	{"spatial", "pbsm.SpatialJoinElimination"},                // elimination
	{"spatial", "pbsm.SpatialJoinNoDedup"},                    // no dedup
	{"spatial", "pbsm.SpatialJoinPlaneSweep"},                 // LocalJoin
	{"spatial", "pbsm.SpatialJoinTheta"},                      // theta, avoidance
	{"interval", "oip.IntervalJoin"},                          // theta
	{"distance", "knn.PointsWithin"},                          // theta
	{"textsim", "setsimilarity.SetSimilarityJoin"},            // symmetric self-join
	{"textsim", "setsimilarity.SetSimilarityJoinElimination"}, // self-join, elimination
	{"trajectory", "traj.ClosenessJoin"},                      // symmetric self-join
}

// udfLayouts are the execution shapes each class runs under: the
// default (naive theta for custom MATCH), smart theta, and a budget
// that spills COMBINE.
var udfLayouts = []struct {
	name  string
	opt   fudj.Option
	smart bool
}{
	{"default", nil, false},
	{"smart-theta", fudj.WithSmartTheta(true), true},
	{"budget", fudj.WithMemoryBudget(12288), false},
}

func chaosLib(t *testing.T, name string) chaosLibrary {
	for _, l := range chaosLibraries {
		if l.name == name {
			return l
		}
	}
	t.Fatalf("no chaos library %q", name)
	return chaosLibrary{}
}

// udfProbe counts a row's calls into library code, per method, and
// panics on the nth call of the armed method. It is shared by every
// join instance the row's constructor builds.
type udfProbe struct {
	calls map[string]*atomic.Int64
	armed string // method to panic in; "" disarms
	nth   int64
}

// arm makes the nth call of method, counted from now, panic.
func (p *udfProbe) arm(method string, nth int64) {
	for _, c := range p.calls {
		c.Store(0)
	}
	p.armed, p.nth = method, nth
}

func (p *udfProbe) hit(method string) {
	if p.calls[method].Add(1) == p.nth && method == p.armed {
		panic(method + " boom")
	}
}

// cleanRun creates the join, runs the query, counting every call, and
// drops the join again; it returns the query's result.
func (p *udfProbe) cleanRun(t *testing.T, db *fudj.DB, ddl, name, query string) *fudj.Result {
	t.Helper()
	p.arm("", 0)
	if _, err := db.Execute(ddl); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("clean run produced no rows")
	}
	if _, err := db.Execute("DROP JOIN " + name); err != nil {
		t.Fatal(err)
	}
	return res
}

// udfSite is where a panicking call must be reported: its phase, at
// the coordinator (partition -1) or in a task, and whether a record
// index is known.
type udfSite struct {
	phase  string
	coord  bool
	record bool
}

// udfSiteOf is where the first (or last) call of method runs.
func udfSiteOf(method string, first bool, desc fudj.Descriptor, smart bool) udfSite {
	switch method {
	case "New", "Descriptor":
		return udfSite{phase: "create", coord: true}
	case "NewSummary": // a task's identity first, the coordinator's merge last
		return udfSite{phase: "summarize", coord: !first}
	case "LocalAggregate":
		return udfSite{phase: "summarize", record: true}
	case "EncodeSummary":
		return udfSite{phase: "summarize"}
	case "DecodeSummary", "GlobalAggregate":
		return udfSite{phase: "summarize", coord: true}
	case "Divide", "EncodePlan", "DecodePlan":
		return udfSite{phase: "divide", coord: true}
	case "Assign":
		return udfSite{phase: "assign", record: true}
	case "Match":
		// Smart theta enumerates bucket pairs at the coordinator before
		// COMBINE.
		if smart && !desc.DefaultMatch {
			return udfSite{phase: "match", coord: true}
		}
	}
	return udfSite{phase: "combine"} // Match, Verify, Dedup, LocalJoin
}

// checkUDFError requires err to be the panic's *UDFError, reported at
// want, with a stack, and not retried.
func checkUDFError(t *testing.T, what string, err error, join, text string, want udfSite) {
	t.Helper()
	var ue *fudj.UDFError
	if !errors.As(err, &ue) {
		t.Fatalf("%s: error is not a *UDFError: %v", what, err)
	}
	if ue.Join != join || ue.Phase != want.phase {
		t.Errorf("%s: join %q phase %q, want %q %q", what, ue.Join, ue.Phase, join, want.phase)
	}
	if want.coord != (ue.Partition == -1) {
		t.Errorf("%s: partition %d, want coordinator=%v", what, ue.Partition, want.coord)
	}
	if want.record != (ue.Record >= 0) {
		t.Errorf("%s: record %d, want a record index=%v", what, ue.Record, want.record)
	}
	if ue.Stack == "" {
		t.Errorf("%s: no stack captured", what)
	}
	if !strings.Contains(err.Error(), text) {
		t.Errorf("%s: message %q should carry %q", what, err.Error(), text)
	}
	if strings.Contains(err.Error(), "gave up after") {
		t.Errorf("%s: the panic was retried: %v", what, err)
	}
}

// panicJoin is a library class under the probe. It implements every
// core.Join method itself, so a method added to the interface fails to
// compile here until the matrix covers it.
type panicJoin struct {
	p *udfProbe
	j fudj.Join
}

func (w panicJoin) Descriptor() fudj.Descriptor {
	w.p.hit("Descriptor")
	return w.j.Descriptor()
}

func (w panicJoin) NewSummary(side fudj.Side) any {
	w.p.hit("NewSummary")
	return w.j.NewSummary(side)
}

func (w panicJoin) LocalAggregate(side fudj.Side, key any, s any) any {
	w.p.hit("LocalAggregate")
	return w.j.LocalAggregate(side, key, s)
}

func (w panicJoin) GlobalAggregate(side fudj.Side, a, b any) any {
	w.p.hit("GlobalAggregate")
	return w.j.GlobalAggregate(side, a, b)
}

func (w panicJoin) Divide(left, right any, params []any) (any, error) {
	w.p.hit("Divide")
	return w.j.Divide(left, right, params)
}

func (w panicJoin) Assign(side fudj.Side, key any, plan any, dst []fudj.BucketID) []fudj.BucketID {
	w.p.hit("Assign")
	return w.j.Assign(side, key, plan, dst)
}

func (w panicJoin) Match(b1, b2 fudj.BucketID) bool {
	w.p.hit("Match")
	return w.j.Match(b1, b2)
}

func (w panicJoin) Verify(b1 fudj.BucketID, l any, b2 fudj.BucketID, r any, plan any) bool {
	w.p.hit("Verify")
	return w.j.Verify(b1, l, b2, r, plan)
}

func (w panicJoin) Dedup(b1 fudj.BucketID, l any, b2 fudj.BucketID, r any, plan any) bool {
	w.p.hit("Dedup")
	return w.j.Dedup(b1, l, b2, r, plan)
}

func (w panicJoin) LocalJoin(b1 fudj.BucketID, ls []any, b2 fudj.BucketID, rs []any, plan any, emit func(i, j int)) {
	w.p.hit("LocalJoin")
	w.j.LocalJoin(b1, ls, b2, rs, plan, emit)
}

func (w panicJoin) EncodeSummary(s any) ([]byte, error) {
	w.p.hit("EncodeSummary")
	return w.j.EncodeSummary(s)
}

func (w panicJoin) DecodeSummary(buf []byte) (any, error) {
	w.p.hit("DecodeSummary")
	return w.j.DecodeSummary(buf)
}

func (w panicJoin) EncodePlan(plan any) ([]byte, error) {
	w.p.hit("EncodePlan")
	return w.j.EncodePlan(plan)
}

func (w panicJoin) DecodePlan(buf []byte) (any, error) {
	w.p.hit("DecodePlan")
	return w.j.DecodePlan(buf)
}
