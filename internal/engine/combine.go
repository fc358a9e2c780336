// COMBINE bucket groups: the batch-native unit the match/verify loops
// operate on. A bucketGroup pairs one bucket's records with a parallel
// column of their join keys already unboxed via Native(), so the
// O(|ls|·|rs|) verify loop touches a prebuilt key vector instead of
// re-boxing r[1].Native() for every candidate pair — the allocation
// that dominated the record-at-a-time hot path.
package engine

import (
	"sort"

	"fudj/internal/types"
)

// bucketGroup is one bucket's records with their join keys cached in a
// parallel column. keys[i] is recs[i][1].Native(), computed exactly
// once when the record enters the group.
type bucketGroup struct {
	recs  []types.Record
	keys  []any
	bytes int64 // budget-charged size of recs (build side only; 0 without a budget)
}

// add appends one extended record, caching its key.
func (g *bucketGroup) add(r types.Record) {
	g.recs = append(g.recs, r)
	g.keys = append(g.keys, r[1].Native())
}

// only makes g hold just r: the spilled pass re-streams a probe run one
// record at a time through one scratch group per task.
func (g *bucketGroup) only(r types.Record) *bucketGroup {
	g.recs = append(g.recs[:0], r)
	g.keys = append(g.keys[:0], r[1].Native())
	return g
}

// groupByBucket groups extended records by their bucket id (column 0),
// caching each record's key as it lands in its group.
func groupByBucket(recs []types.Record) map[int]*bucketGroup {
	out := make(map[int]*bucketGroup)
	for _, r := range recs {
		id := int(r[0].Int64())
		g := out[id]
		if g == nil {
			g = &bucketGroup{}
			out[id] = g
		}
		g.add(r)
	}
	return out
}

// sortedIDs returns a bucket map's ids in ascending order, so map
// iteration order never leaks into result order.
func sortedIDs[T any](m map[int]T) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
