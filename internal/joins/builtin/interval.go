package builtin

import (
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/interval"
	"fudj/internal/types"
)

// IntervalOIP is the hand-built overlapping-interval join: granule
// partitioning with packed bucket ids, broadcast + random partitioning
// for the theta bucket matching, exact overlap verification.
// params[0] is the granule count.
func IntervalOIP(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value) (cluster.Data, error) {

	if len(params) != 1 || params[0].Kind() != types.KindInt64 {
		return nil, fmt.Errorf("builtin interval: want one integer granule-count parameter")
	}
	n := int(params[0].Int64())
	if n < 1 || n > interval.MaxGranules {
		return nil, fmt.Errorf("builtin interval: granule count %d out of range", n)
	}

	type extent struct {
		min, max int64
		empty    bool
	}
	extentOf := func(data cluster.Data, key expr.Evaluator) (extent, error) {
		parts, err := cluster.RunValues(c, data, func(_ int, in []types.Record) (extent, error) {
			e := extent{min: 1 << 62, max: -(1 << 62), empty: true}
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return e, err
				}
				iv := v.Interval()
				if iv.Start < e.min {
					e.min = iv.Start
				}
				if iv.End > e.max {
					e.max = iv.End
				}
				e.empty = false
			}
			return e, nil
		})
		if err != nil {
			return extent{}, err
		}
		acc := extent{min: 1 << 62, max: -(1 << 62), empty: true}
		for _, p := range parts {
			if p.empty {
				continue
			}
			if p.min < acc.min {
				acc.min = p.min
			}
			if p.max > acc.max {
				acc.max = p.max
			}
			acc.empty = false
		}
		return acc, nil
	}
	le, err := extentOf(left, leftKey)
	if err != nil {
		return nil, err
	}
	re, err := extentOf(right, rightKey)
	if err != nil {
		return nil, err
	}
	min, max := le.min, le.max
	if re.min < min {
		min = re.min
	}
	if re.max > max {
		max = re.max
	}
	if le.empty && re.empty {
		min, max = 0, 0
	}
	g := interval.NewGranulator(min, max, n)

	assign := func(data cluster.Data, key expr.Evaluator) (cluster.Data, error) {
		return c.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
			out := make([]types.Record, 0, len(in))
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return nil, err
				}
				out = append(out, tag(g.Bucket(v.Interval()), v, rec))
			}
			return out, nil
		})
	}
	lAssigned, err := assign(left, leftKey)
	if err != nil {
		return nil, err
	}
	rAssigned, err := assign(right, rightKey)
	if err != nil {
		return nil, err
	}
	lRepl, err := c.Replicate(lAssigned)
	if err != nil {
		return nil, err
	}
	rRand, err := c.ExchangeRandom(rAssigned)
	if err != nil {
		return nil, err
	}
	return c.Run(rRand, func(part int, in []types.Record) ([]types.Record, error) {
		lBuckets := groupByBucket(lRepl[part])
		rBuckets := groupByBucket(in)
		var out []types.Record
		// Walk buckets in sorted-id order so emitted record order is
		// identical across retried attempts (TestByteIdenticalReexecution).
		rOrder := sortedBuckets(rBuckets)
		for _, b1 := range sortedBuckets(lBuckets) {
			ls := lBuckets[b1]
			for _, b2 := range rOrder {
				rs := rBuckets[b2]
				if !interval.BucketsOverlap(b1, b2) {
					continue
				}
				for _, l := range ls {
					li := l[1].Interval()
					for _, r := range rs {
						if li.Overlaps(r[1].Interval()) {
							out = append(out, joinRecs(l, r))
						}
					}
				}
			}
		}
		return out, nil
	})
}
