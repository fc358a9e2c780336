package builtin

import (
	"fmt"
	"maps"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/geo"
	"fudj/internal/types"
)

// SpatialPBSM is the hand-built PBSM spatial join: grid partitioning on
// the joint MBR, hash shuffle by tile, per-tile nested verification
// with Reference Point duplicate avoidance. params[0] is the grid size.
func SpatialPBSM(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value) (cluster.Data, error) {
	return spatial(c, left, leftKey, right, rightKey, params, false)
}

// SpatialPlaneSweep is the advanced spatial operator (§VII-F): the same
// pipeline as SpatialPBSM but with a plane-sweep local join inside each
// tile instead of nested verification.
func SpatialPlaneSweep(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value) (cluster.Data, error) {
	return spatial(c, left, leftKey, right, rightKey, params, true)
}

func spatial(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value, sweep bool) (cluster.Data, error) {

	if len(params) != 1 || params[0].Kind() != types.KindInt64 {
		return nil, fmt.Errorf("builtin spatial: want one integer grid-size parameter")
	}
	n := int(params[0].Int64())
	if n < 1 {
		return nil, fmt.Errorf("builtin spatial: grid size %d out of range", n)
	}

	// SUMMARIZE equivalent: direct MBR union per partition, no codec.
	mbrOf := func(data cluster.Data, key expr.Evaluator) (geo.Rect, error) {
		parts, err := cluster.RunValues(c, data, func(_ int, in []types.Record) (geo.Rect, error) {
			acc := geo.EmptyRect()
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return geo.EmptyRect(), err
				}
				m, ok := v.MBR()
				if !ok {
					return geo.EmptyRect(), fmt.Errorf("builtin spatial: key %v is not spatial", v.Kind())
				}
				acc = acc.Union(m)
			}
			return acc, nil
		})
		if err != nil {
			return geo.EmptyRect(), err
		}
		acc := geo.EmptyRect()
		for _, p := range parts {
			acc = acc.Union(p)
		}
		return acc, nil
	}
	lm, err := mbrOf(left, leftKey)
	if err != nil {
		return nil, err
	}
	rm, err := mbrOf(right, rightKey)
	if err != nil {
		return nil, err
	}
	space := lm.Intersect(rm)
	if space.IsEmpty() {
		space = lm.Union(rm)
	}
	if space.IsEmpty() {
		space = geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	grid := geo.NewGrid(space, n)

	// Each assign task also notes the tiles its records reach.
	assign := func(data cluster.Data, key expr.Evaluator) (cluster.Data, map[int]bool, error) {
		seen := make([]map[int]bool, len(data))
		out, err := c.Run(data, func(part int, in []types.Record) ([]types.Record, error) {
			var out []types.Record
			var tiles []int
			reached := make(map[int]bool)
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return nil, err
				}
				m, _ := v.MBR()
				tiles = grid.OverlappingTiles(m, tiles[:0])
				for _, tile := range tiles {
					reached[tile] = true
					out = append(out, tag(tile, v, rec))
				}
			}
			seen[part] = reached
			return out, nil
		})
		all := make(map[int]bool)
		for _, m := range seen {
			maps.Copy(all, m)
		}
		return out, all, err
	}
	lAssigned, lTiles, err := assign(left, leftKey)
	if err != nil {
		return nil, err
	}
	rAssigned, rTiles, err := assign(right, rightKey)
	if err != nil {
		return nil, err
	}
	// Hash shuffle by tile, of the tiles both sides reach: a tile only
	// one side reaches yields no pair, so its records are not shipped
	// (the live-bucket filter of the FUDJ hash layout).
	byTile := cluster.HashRoute(c.Partitions(), func(r types.Record) uint64 { return r[0].Hash() })
	reachedBy := func(other map[int]bool) cluster.Route {
		return cluster.FilterRoute(byTile, func(r types.Record) bool { return other[int(r[0].Int64())] })
	}
	lShuf, err := c.ExchangeMulti(lAssigned, reachedBy(rTiles))
	if err != nil {
		return nil, err
	}
	rShuf, err := c.ExchangeMulti(rAssigned, reachedBy(lTiles))
	if err != nil {
		return nil, err
	}

	return c.Run(lShuf, func(part int, in []types.Record) ([]types.Record, error) {
		lTiles := groupByBucket(in)
		rTiles := groupByBucket(rShuf[part])
		var out []types.Record
		emit := func(tile int, l, r types.Record) {
			lg, _ := l[1].Geometry()
			rg, _ := r[1].Geometry()
			// Reference Point duplicate avoidance, then exact verify.
			if grid.ReferencePointTile(lg.Bounds().Intersect(rg.Bounds())) != tile {
				return
			}
			if !geo.Intersects(lg, rg) {
				return
			}
			out = append(out, joinRecs(l, r))
		}
		// Walk tiles in sorted-id order so emitted record order is
		// identical across retried attempts (TestByteIdenticalReexecution).
		for _, tile := range sortedBuckets(lTiles) {
			ls := lTiles[tile]
			rs, ok := rTiles[tile]
			if !ok {
				continue
			}
			if sweep {
				// Plane-sweep candidate generation on MBRs inside the tile.
				lItems := make([]geo.SweepItem, len(ls))
				for i, rec := range ls {
					m, _ := rec[1].MBR()
					lItems[i] = geo.SweepItem{MBR: m, Ref: i}
				}
				rItems := make([]geo.SweepItem, len(rs))
				for i, rec := range rs {
					m, _ := rec[1].MBR()
					rItems[i] = geo.SweepItem{MBR: m, Ref: i}
				}
				geo.PlaneSweepJoin(lItems, rItems, func(li, ri int) {
					emit(tile, ls[li], rs[ri])
				})
			} else {
				for _, l := range ls {
					lb, _ := l[1].MBR()
					for _, r := range rs {
						rb, _ := r[1].MBR()
						if !lb.Intersects(rb) {
							continue
						}
						emit(tile, l, r)
					}
				}
			}
		}
		return out, nil
	})
}
