package engine

import (
	"bytes"
	"testing"

	"fudj/internal/joins/builtin"
	"fudj/internal/types"
)

// The byte-level determinism contract behind retry and speculation:
// executing the same query on two independently built (identically
// seeded) multi-node clusters must produce byte-identical encoded
// results — not merely the same multiset. Each row names the code path
// whose emission order it pins:
//
//   - the GROUP BY queries pin the partial-aggregate emission order
//     (engine/groupby.go, as its own pass and as COMBINE's sink — the
//     latter unordered, so the final rows expose it);
//   - the builtin-mode spatial, interval and text queries pin the
//     operators' bucket iteration order (joins/builtin);
//   - the smart-theta query has two granules, so its hot bucket is split
//     over several owner partitions: which owner a record reaches must
//     not depend on how the source partitions' goroutines interleave
//     (re-executed 20 times, since a scheduling race needs the chances).
//
// Go randomizes map iteration per map instance, so a reintroduced
// unsorted map range on any of these paths fails this test with high
// probability across repeated runs. The seedrand analyzer keeps the wall
// clock and the global math/rand generator out of every execution
// decision on the same paths.
func TestByteIdenticalReexecution(t *testing.T) {
	type query struct {
		name       string
		mode       JoinMode
		smartTheta bool
		sql        string
		backing    string
	}
	queries := []query{
		{
			name: "groupby",
			mode: ModeFUDJ,
			sql: `SELECT r.overall, COUNT(*) AS n, SUM(r.id) AS total
			      FROM reviews r GROUP BY r.overall ORDER BY r.overall`,
			backing: "groupby.go phase-1 partial emission order",
		},
		{
			name: "fudj-interval",
			mode: ModeFUDJ,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE a.vendor = 1 AND b.vendor = 2
			      AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
			backing: "FUDJ COMBINE emission order",
		},
		{
			name: "fudj-aggregate-sink",
			mode: ModeFUDJ,
			sql: `SELECT b.vendor, a.vendor, COUNT(*) AS n, SUM(a.id) AS total FROM rides a, rides b
			      WHERE overlapping_interval(a.ride_interval, b.ride_interval, 50)
			      GROUP BY b.vendor, a.vendor`,
			backing: "COMBINE's partial-aggregate sink emits groups in first-seen order",
		},
		{
			name: "builtin-interval",
			mode: ModeBuiltin,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE a.vendor = 1 AND b.vendor = 2
			      AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
			backing: "builtin/interval.go bucket iteration order",
		},
		{
			name: "builtin-spatial",
			mode: ModeBuiltin,
			sql: `SELECT p.id, w.id FROM parks p, wildfires w
			      WHERE spatial_join(p.boundary, w.location, 8)`,
			backing: "builtin/spatial.go tile iteration order",
		},
		{
			name: "builtin-textsim",
			mode: ModeBuiltin,
			sql: `SELECT a.id, b.id FROM reviews a, reviews b
			      WHERE a.overall = 5 AND b.overall = 4
			      AND text_similarity_join(a.review, b.review, 0.8)`,
			backing: "builtin/textsim.go rank iteration order",
		},
		{
			name:       "smart-theta-split-bucket",
			mode:       ModeFUDJ,
			smartTheta: true,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE overlapping_interval(a.ride_interval, b.ride_interval, 2)`,
			backing: "pure exchange routes: theta.go hot-bucket owner choice",
		},
	}

	run := func(t *testing.T, q query) []byte {
		// A fresh database per execution: fresh map instances (fresh
		// iteration seeds), fresh cluster state.
		db := newTestDB(t)
		db.RegisterBuiltinJoin("spatial_join", BuiltinJoinFunc(builtin.SpatialPBSM))
		db.RegisterBuiltinJoin("overlapping_interval", BuiltinJoinFunc(builtin.IntervalOIP))
		db.RegisterBuiltinJoin("text_similarity_join", BuiltinJoinFunc(builtin.TextSimilarity))
		db.MustConfigure(WithJoinMode(q.mode))
		db.MustConfigure(WithSmartTheta(q.smartTheta))
		res := mustQuery(t, db, q.sql)
		if len(res.Rows) == 0 {
			t.Fatalf("query produced no rows: %s", q.sql)
		}
		return types.EncodeRecords(res.Rows)
	}

	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			first := run(t, q)
			for i := 1; i < 20; i++ {
				if again := run(t, q); !bytes.Equal(first, again) {
					t.Fatalf("re-execution %d produced different bytes (%d vs %d); path under test: %s",
						i, len(first), len(again), q.backing)
				}
			}
		})
	}
}
