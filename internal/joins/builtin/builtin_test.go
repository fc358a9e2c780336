package builtin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/text"
	"fudj/internal/types"
)

func newCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 2})
}

// keyCol returns an evaluator reading column idx.
func keyCol(idx int) expr.Evaluator {
	return func(r types.Record) (types.Value, error) { return r[idx], nil }
}

func fingerprint(d cluster.Data) []string {
	var out []string
	for _, part := range d {
		for _, rec := range part {
			out = append(out, rec.String())
		}
	}
	sort.Strings(out)
	return out
}

func sameData(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d differs:\n  %s\n  %s", name, i, a[i], b[i])
		}
	}
}

// nljReference joins with a brute-force predicate, producing the same
// l++r record layout as the operators.
func nljReference(left, right cluster.Data, pred func(l, r types.Value) bool) []string {
	var out []string
	for _, lp := range left {
		for _, l := range lp {
			for _, rp := range right {
				for _, r := range rp {
					if pred(l[0], r[0]) {
						joined := append(append(types.Record{}, l...), r...)
						out = append(out, joined.String())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func spatialData(rng *rand.Rand, c *cluster.Cluster, n int) cluster.Data {
	recs := make([]types.Record, n)
	for i := range recs {
		x, y := rng.Float64()*80, rng.Float64()*80
		if i%2 == 0 {
			recs[i] = types.Record{types.NewPoint(geo.Point{X: x, Y: y}), types.NewInt64(int64(i))}
		} else {
			w, h := rng.Float64()*6+0.5, rng.Float64()*6+0.5
			recs[i] = types.Record{
				types.NewPolygon(geo.NewPolygon([]geo.Point{
					{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h},
				})),
				types.NewInt64(int64(i)),
			}
		}
	}
	return c.Scatter(recs)
}

func TestSpatialVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := newCluster()
	left := spatialData(rng, c, 100)
	right := spatialData(rng, c, 80)
	want := nljReference(left, right, func(l, r types.Value) bool {
		lg, _ := l.Geometry()
		rg, _ := r.Geometry()
		return geo.Intersects(lg, rg)
	})
	for _, n := range []int64{1, 4, 16} {
		params := []types.Value{types.NewInt64(n)}
		got, err := SpatialPBSM(c, left, keyCol(0), right, keyCol(0), params)
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, fmt.Sprintf("pbsm n=%d", n), fingerprint(got), want)

		got, err = SpatialPlaneSweep(c, left, keyCol(0), right, keyCol(0), params)
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, fmt.Sprintf("sweep n=%d", n), fingerprint(got), want)
	}
}

func TestSpatialINLJMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := newCluster()
	left := spatialData(rng, c, 90)
	right := spatialData(rng, c, 70)
	want := nljReference(left, right, func(l, r types.Value) bool {
		lg, _ := l.Geometry()
		rg, _ := r.Geometry()
		return geo.Intersects(lg, rg)
	})
	got, err := SpatialINLJ(c, left, keyCol(0), right, keyCol(0), []types.Value{types.NewInt64(0)})
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, "inlj", fingerprint(got), want)
	// No parameter at all is also fine; two parameters are not.
	if _, err := SpatialINLJ(c, left, keyCol(0), right, keyCol(0), nil); err != nil {
		t.Errorf("paramless INLJ: %v", err)
	}
	if _, err := SpatialINLJ(c, left, keyCol(0), right, keyCol(0),
		[]types.Value{types.NewInt64(0), types.NewInt64(0)}); err == nil {
		t.Error("two params should be rejected")
	}
}

func TestSpatialBadParams(t *testing.T) {
	c := newCluster()
	empty := c.NewData()
	for _, params := range [][]types.Value{
		nil,
		{types.NewFloat64(3)},
		{types.NewInt64(0)},
		{types.NewInt64(4), types.NewInt64(4)},
	} {
		if _, err := SpatialPBSM(c, empty, keyCol(0), empty, keyCol(0), params); err == nil {
			t.Errorf("params %v should be rejected", params)
		}
	}
}

func intervalData(rng *rand.Rand, c *cluster.Cluster, n int) cluster.Data {
	recs := make([]types.Record, n)
	for i := range recs {
		s := rng.Int63n(4000)
		recs[i] = types.Record{
			types.NewInterval(interval.Interval{Start: s, End: s + rng.Int63n(250)}),
			types.NewInt64(int64(i)),
		}
	}
	return c.Scatter(recs)
}

func TestIntervalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := newCluster()
	left := intervalData(rng, c, 90)
	right := intervalData(rng, c, 70)
	want := nljReference(left, right, func(l, r types.Value) bool {
		return l.Interval().Overlaps(r.Interval())
	})
	for _, n := range []int64{1, 16, 256} {
		got, err := IntervalOIP(c, left, keyCol(0), right, keyCol(0), []types.Value{types.NewInt64(n)})
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, fmt.Sprintf("interval n=%d", n), fingerprint(got), want)
	}
}

func TestIntervalBadParams(t *testing.T) {
	c := newCluster()
	empty := c.NewData()
	for _, params := range [][]types.Value{nil, {types.NewInt64(0)}, {types.NewFloat64(1)}} {
		if _, err := IntervalOIP(c, empty, keyCol(0), empty, keyCol(0), params); err == nil {
			t.Errorf("params %v should be rejected", params)
		}
	}
}

func textData(rng *rand.Rand, c *cluster.Cluster, n int) cluster.Data {
	vocab := []string{"river", "scenic", "camping", "trail", "lake", "forest", "desert", "historic", "monument", "canyon"}
	recs := make([]types.Record, n)
	for i := range recs {
		k := 3 + rng.Intn(4)
		words := make([]string, k)
		for j := range words {
			idx := rng.Intn(len(vocab))
			if rng.Intn(3) > 0 {
				idx = rng.Intn(len(vocab) / 2)
			}
			words[j] = vocab[idx]
		}
		recs[i] = types.Record{types.NewString(strings.Join(words, " ")), types.NewInt64(int64(i))}
	}
	return c.Scatter(recs)
}

func TestTextSimilarityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c := newCluster()
	left := textData(rng, c, 80)
	right := textData(rng, c, 60)
	for _, threshold := range []float64{0.6, 0.8, 0.9} {
		want := nljReference(left, right, func(l, r types.Value) bool {
			return text.Jaccard(text.TokenSet(l.Str()), text.TokenSet(r.Str())) >= threshold
		})
		got, err := TextSimilarity(c, left, keyCol(0), right, keyCol(0), []types.Value{types.NewFloat64(threshold)})
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, fmt.Sprintf("textsim t=%v", threshold), fingerprint(got), want)
	}
}

func TestTextSimilarityBadParams(t *testing.T) {
	c := newCluster()
	empty := c.NewData()
	for _, params := range [][]types.Value{nil, {types.NewFloat64(0)}, {types.NewFloat64(1.5)}, {types.NewInt64(1)}} {
		if _, err := TextSimilarity(c, empty, keyCol(0), empty, keyCol(0), params); err == nil {
			t.Errorf("params %v should be rejected", params)
		}
	}
}

func TestSmallestSharedRank(t *testing.T) {
	rt := text.BuildRankTable(map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4})
	set := func(toks ...string) text.Set { return rt.RankSet(text.Set{Tokens: toks}, text.Set{}) }
	// With threshold 0.5 and 2 tokens, prefix length is 2: all ranks.
	if got := smallestSharedRank(rt, set("a", "c"), set("c", "d"), 0.5); got != rt.Rank("c") {
		t.Errorf("smallestSharedRank = %d, want rank of c", got)
	}
	if got := smallestSharedRank(rt, set("a"), set("d"), 0.5); got != -1 {
		t.Errorf("disjoint prefixes should be -1, got %d", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	c := newCluster()
	empty := c.NewData()
	if got, err := SpatialPBSM(c, empty, keyCol(0), empty, keyCol(0), []types.Value{types.NewInt64(4)}); err != nil || got.Rows() != 0 {
		t.Errorf("spatial empty: %v rows %d", err, got.Rows())
	}
	if got, err := IntervalOIP(c, empty, keyCol(0), empty, keyCol(0), []types.Value{types.NewInt64(4)}); err != nil || got.Rows() != 0 {
		t.Errorf("interval empty: %v rows %d", err, got.Rows())
	}
	if got, err := TextSimilarity(c, empty, keyCol(0), empty, keyCol(0), []types.Value{types.NewFloat64(0.9)}); err != nil || got.Rows() != 0 {
		t.Errorf("textsim empty: %v rows %d", err, got.Rows())
	}
}
