package core_test

import (
	"runtime"
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
	ls := join.LocalAggregate(core.Left, poly, join.NewSummary(core.Left))
	rs := join.NewSummary(core.Right)
	for _, p := range []geo.Geometry{point, geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10}} {
		rs = join.LocalAggregate(core.Right, p, rs)
	}
	plan, err := join.Divide(ls, rs, []any{int64(4)}) // a 4×4 grid over the polygon
	if err != nil {
		t.Fatal(err)
	}
	var lk, rk any = poly, point
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

// pairKey is a prepared key the runtime boxes with an allocation of its
// own: neither pointer-shaped nor small.
type pairKey struct{ raw, tag int64 }

// pairJoin returns a join whose Prepare turns an int64 into a pairKey
// without allocating.
func pairJoin() core.Join {
	return core.Wrap(core.Spec[pairKey, pairKey, int64, int64]{
		Name:         "pairs",
		Prepare:      func(raw any) pairKey { return pairKey{raw.(int64), 7} },
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ pairKey, s int64) int64 { return s },
		GlobalAgg:    func(a, _ int64) int64 { return a },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(k pairKey, _ int64, dst []core.BucketID) []core.BucketID { return append(dst, int(k.raw)) },
		Verify:       func(_ core.BucketID, l pairKey, _ core.BucketID, r pairKey, _ int64) bool { return l == r },
	})
}

// rawKeys returns n int64 keys boxed once, outside any measurement.
func rawKeys(n int) []any {
	raws := make([]any, n)
	for i := range raws {
		raws[i] = int64(1000 + i)
	}
	return raws
}

// TestPreparerAllocatesPerChunk pins the point of a Preparer: preparing
// 1 024 keys allocates once per slab chunk, plus the Preparer itself,
// beside Prepare's own work (none here), where boxing each prepared key
// allocates once per key. The keys keep their values after the
// Preparer is dropped and the heap collected.
func TestPreparerAllocatesPerChunk(t *testing.T) {
	const n, chunk = 1024, 100
	j, raws, keys := pairJoin(), rawKeys(n), make([]any, n)
	allocs := testing.AllocsPerRun(10, func() {
		p := core.NewPreparer(j, chunk)
		for i, r := range raws {
			keys[i] = p.Prepare(r)
		}
	})
	if want := float64((n+chunk-1)/chunk + 1); allocs > want {
		t.Errorf("preparing %d keys in chunks of %d allocated %.0f times, want at most %.0f", n, chunk, allocs, want)
	}
	runtime.GC()
	for i, k := range keys {
		if k.(pairKey) != (pairKey{int64(1000 + i), 7}) {
			t.Fatalf("key %d = %v after a collection", i, k)
		}
	}
	if !j.Verify(0, keys[3], 0, keys[3], int64(0)) || j.Verify(0, keys[3], 0, keys[4], int64(0)) {
		t.Error("Verify over prepared keys disagrees with the keys")
	}
}

// TestPreparerWithoutPrepareAllocatesNothing pins the no-op: for a
// Wrap-built join without Prepare and for a Join that is not
// Wrap-built, making a Preparer and passing 1 024 keys through it
// allocates nothing, and every key comes back as it went in.
func TestPreparerWithoutPrepareAllocatesNothing(t *testing.T) {
	const n = 1024
	raws, keys := rawKeys(n), make([]any, n)
	for name, j := range map[string]core.Join{
		"wrapped":     spatialjoin.New(),
		"not wrapped": struct{ core.Join }{pairJoin()},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			p := core.NewPreparer(j, n)
			for i, r := range raws {
				keys[i] = p.Prepare(r)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: preparing %d keys allocated %.0f times, want 0", name, n, allocs)
		}
		for i := range keys {
			if keys[i] != raws[i] {
				t.Fatalf("%s: key %d = %v, want the raw key %v", name, i, keys[i], raws[i])
			}
		}
	}
}
