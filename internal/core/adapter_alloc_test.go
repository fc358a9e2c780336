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
