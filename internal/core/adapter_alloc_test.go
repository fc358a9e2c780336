package core_test

import (
	"testing"

	"fudj/internal/core"
	"fudj/internal/geo"
	"fudj/internal/joins/spatialjoin"
)

// TestLocalAggregateAllAllocs pins the batched SUMMARIZE: a Wrap-built
// join folds a partition's pre-boxed keys with one allocation at most
// (the boxed summary), while a Join that hides the batch method is
// served per key and boxes the summary once per key.
func TestLocalAggregateAllAllocs(t *testing.T) {
	keys := make([]any, 1024)
	for i := range keys {
		keys[i] = geo.Geometry(geo.Point{X: float64(i % 97), Y: float64(i % 89)})
	}
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 96, MaxY: 88}
	run := func(j core.Join) float64 {
		identity := j.NewSummary(core.Left)
		var rec int
		return testing.AllocsPerRun(20, func() {
			s := core.LocalAggregateAll(j, core.Left, keys, identity, &rec)
			if rec != len(keys)-1 || s.(geo.Rect) != want {
				t.Fatalf("rec %d summary %v", rec, s)
			}
		})
	}
	join := spatialjoin.New()
	if got := run(join); got > 1 {
		t.Errorf("batched fold: %.0f allocations per partition, want at most 1", got)
	}
	if got := run(struct{ core.Join }{join}); got < float64(len(keys)) {
		t.Errorf("per-key fallback: %.0f allocations per partition, want at least %d", got, len(keys))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestDefaultDedupAllocatesNothing pins duplicate avoidance's scratch:
// re-running ASSIGN on both keys of a verified pair reuses pooled
// assign lists, so Dedup allocates nothing per pair.
func TestDefaultDedupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	join := spatialjoin.New()
	poly := geo.Geometry(geo.NewPolygon([]geo.Point{{X: 1, Y: 1}, {X: 9, Y: 1}, {X: 9, Y: 9}, {X: 1, Y: 9}}))
	point := geo.Geometry(geo.Point{X: 4, Y: 4})
	ls := join.LocalAggregate(core.Left, core.PrepareKey(join, core.Left, poly), join.NewSummary(core.Left))
	rs := join.NewSummary(core.Right)
	for _, p := range []geo.Geometry{point, geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10}} {
		rs = join.LocalAggregate(core.Right, core.PrepareKey(join, core.Right, p), rs)
	}
	plan, err := join.Divide(ls, rs, []any{int64(4)}) // a 4×4 grid over the polygon
	if err != nil {
		t.Fatal(err)
	}
	lk, rk := core.PrepareKey(join, core.Left, poly), core.PrepareKey(join, core.Right, point)
	b2 := join.Assign(core.Right, rk, plan, nil)[0]
	lb := join.Assign(core.Left, lk, plan, nil)
	if len(lb) < 2 {
		t.Fatalf("polygon assigned to %d buckets, want several", len(lb))
	}
	var keep int
	for _, b1 := range lb {
		if !join.Match(b1, b2) || !join.Verify(b1, lk, b2, rk, plan) {
			continue
		}
		allocs := testing.AllocsPerRun(100, func() {
			if join.Dedup(b1, lk, b2, rk, plan) {
				keep++
			}
		})
		if allocs != 0 {
			t.Errorf("Dedup of bucket pair (%d, %d) allocated %.1f times per call, want 0", b1, b2, allocs)
		}
	}
	if keep == 0 {
		t.Error("no bucket pair kept the verified pair")
	}
}
