// Package builtin contains the hand-built distributed join operators
// the paper compares FUDJ against: the same partition-based algorithms
// implemented directly against the engine's internals (no translation
// layer, no generic assign/verify indirection), each in the style of a
// from-scratch DBMS operator. It also hosts the advanced spatial
// operator of §VII-F, which adds a plane-sweep local join inside each
// tile.
//
// Every operator matches the engine's BuiltinJoinFunc signature
// structurally, so the engine can route a FUDJ predicate to its
// built-in twin when the join mode is ModeBuiltin.
package builtin

import (
	"sort"

	"fudj/internal/types"
)

// tagged wraps an input record with its precomputed key value and
// bucket id, the layout shared by all operators here:
// [bucket, key, original fields...].
func tag(bucket int, key types.Value, rec types.Record) types.Record {
	out := make(types.Record, 0, 2+len(rec))
	return append(append(out, types.NewInt64(int64(bucket)), key), rec...)
}

func joinRecs(l, r types.Record) types.Record {
	out := make(types.Record, 0, len(l)+len(r)-4)
	out = append(out, l[2:]...)
	return append(out, r[2:]...)
}

func groupByBucket(recs []types.Record) map[int][]types.Record {
	out := make(map[int][]types.Record)
	for _, r := range recs {
		id := int(r[0].Int64())
		out[id] = append(out[id], r)
	}
	return out
}

// sortedBuckets returns m's bucket ids in ascending order, so an
// operator's output order never depends on map iteration.
func sortedBuckets(m map[int][]types.Record) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
