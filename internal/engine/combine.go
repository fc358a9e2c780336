// COMBINE bucket groups: the batch-native unit the match/verify loops
// operate on. A bucketGroup pairs one bucket's records with a parallel
// column of their join keys, boxed and prepared, or decoded, from the
// task's slabs (types.Boxer, core.Preparer) once per record, so the
// O(|ls|·|rs|) verify loop touches a prebuilt key vector instead of
// re-boxing r[1] for every candidate pair — the allocation that
// dominated the record-at-a-time hot path.
package engine

import (
	"fmt"

	"fudj/internal/core"
	"fudj/internal/types"
)

// bucketGroup is one bucket's records with their join keys cached in a
// parallel column. keys[i] is recs[i]'s key, prepared or decoded; the
// column is filled lazily, by prepared, so a group that is never
// combined prepares and decodes nothing.
type bucketGroup struct {
	recs  []types.Record
	keys  []any
	bytes int64 // budget-charged size of recs (build side only; 0 without a budget)
}

// add appends one extended record; its key waits for prepared.
func (g *bucketGroup) add(r types.Record) { g.recs = append(g.recs, r) }

// prepared returns g's key column, first filling in the keys of the
// records added since the last call: boxed (through box) and prepared
// (through prep), or, with box nil, decoded (prep.Decode) from the
// shipped keys of a join that rekeys (core.Rekeys). It runs library
// code, so it is only called inside the guarded COMBINE task; it runs
// once per bucket pair, so the usual case, a column already full, stays
// inlined.
func (g *bucketGroup) prepared(box *types.Boxer, prep core.Preparer) ([]any, error) {
	if len(g.keys) < len(g.recs) {
		if err := g.fill(box, prep); err != nil {
			return nil, err
		}
	}
	return g.keys, nil
}

func (g *bucketGroup) fill(box *types.Boxer, prep core.Preparer) error {
	for _, r := range g.recs[len(g.keys):] {
		if box != nil {
			g.keys = append(g.keys, prep.Prepare(box.Native(r[1])))
			continue
		}
		k, err := prep.Decode(r[1].Str())
		if err != nil {
			return fmt.Errorf("engine: decode shipped key: %w", err)
		}
		g.keys = append(g.keys, k)
	}
	return nil
}

// carveGroups returns one empty group per distinct bucket id of recs
// (column 0), its recs and keys carved at exactly the bucket's size from
// one flat slice each, so adding the bucket's records and filling their
// keys never grows a slice. Map order places groups in the flat slices;
// it cannot change what they hold.
func carveGroups(recs []types.Record) map[int]*bucketGroup {
	sizes := make(map[int]int)
	for _, r := range recs {
		sizes[int(r[0].Int64())]++
	}
	groups := make([]bucketGroup, 0, len(sizes))
	flatRecs := make([]types.Record, len(recs))
	flatKeys := make([]any, len(recs))
	out := make(map[int]*bucketGroup, len(sizes))
	off := 0
	for id, n := range sizes {
		groups = append(groups, bucketGroup{
			recs: flatRecs[off : off : off+n],
			keys: flatKeys[off : off : off+n],
		})
		out[id] = &groups[len(groups)-1]
		off += n
	}
	return out
}

// groupByBucket groups extended records by their bucket id (column 0),
// in carved groups.
func groupByBucket(recs []types.Record) map[int]*bucketGroup {
	out := carveGroups(recs)
	for _, r := range recs {
		out[int(r[0].Int64())].add(r)
	}
	return out
}
