// Degraded-execution acceptance for every join library, through the
// public API: each of the five libraries runs its query on a faulted
// cluster, under a memory budget far below its working set, and across
// barrier kills with checkpoints on, and must return the multiset a
// fault-free run returns. One table row per library: how to build its
// datasets, its CREATE JOIN, its query, and the fault seed and straggler
// node of its equivalence run.
package fudj_test

import (
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"fudj"
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
