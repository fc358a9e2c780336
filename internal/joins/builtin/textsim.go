package builtin

import (
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/text"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// TextSimilarity is the hand-built prefix-filtering set-similarity
// join. It carries each record's token set through the shuffle, ranked
// for the global rank table (text.Set), so its verify never tokenizes
// and merges integers — the kind of local optimization a built-in
// operator can apply. params[0] is the Jaccard threshold.
func TextSimilarity(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value) (cluster.Data, error) {

	if len(params) != 1 || params[0].Kind() != types.KindFloat64 {
		return nil, fmt.Errorf("builtin textsim: want one float threshold parameter")
	}
	threshold := params[0].Float64()
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("builtin textsim: threshold %v out of (0,1]", threshold)
	}

	countTokens := func(data cluster.Data, key expr.Evaluator) (map[string]int64, error) {
		parts, err := cluster.RunValues(c, data, func(_ int, in []types.Record) (map[string]int64, error) {
			m := make(map[string]int64)
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return nil, err
				}
				for _, tok := range text.TokenSet(v.Str()) {
					m[tok]++
				}
			}
			return m, nil
		})
		if err != nil {
			return nil, err
		}
		acc := make(map[string]int64)
		for _, p := range parts {
			for tok, n := range p {
				acc[tok] += n
			}
		}
		return acc, nil
	}
	lCounts, err := countTokens(left, leftKey)
	if err != nil {
		return nil, err
	}
	rCounts, err := countTokens(right, rightKey)
	if err != nil {
		return nil, err
	}
	for tok, n := range rCounts {
		lCounts[tok] += n
	}
	ranks := text.BuildRankTable(lCounts)

	// Assign: record becomes [rank, key, fields...], the key the
	// record's token set ranked for the table, in its wire form, so
	// COMBINE neither tokenizes nor looks a token up.
	assign := func(data cluster.Data, key expr.Evaluator) (cluster.Data, error) {
		return c.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
			var out []types.Record
			var prefix []int
			e := wire.NewEncoder(64)
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return nil, err
				}
				set := ranks.RankSet(text.Set{Tokens: text.TokenSet(v.Str())}, text.Set{})
				e.Reset()
				set.MarshalWire(e)
				enc := types.NewString(string(e.Bytes()))
				prefix = ranks.AppendPrefix(prefix[:0], set, threshold)
				for _, rank := range prefix {
					out = append(out, tag(rank, enc, rec))
				}
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
	rankHash := func(r types.Record) uint64 { return r[0].Hash() }
	lShuf, err := c.ExchangeHash(lAssigned, rankHash)
	if err != nil {
		return nil, err
	}
	rShuf, err := c.ExchangeHash(rAssigned, rankHash)
	if err != nil {
		return nil, err
	}

	// setsOf decodes the ranked sets of one bucket's records, each over
	// the one before it, so they share a few chunks of ranks.
	setsOf := func(recs []types.Record) ([]text.Set, error) {
		sets := make([]text.Set, len(recs))
		var s text.Set
		for i, rec := range recs {
			if err := s.UnmarshalWire(wire.NewDecoder([]byte(rec[1].Str()))); err != nil {
				return nil, fmt.Errorf("builtin textsim: %w", err)
			}
			sets[i] = s
		}
		return sets, nil
	}
	return c.Run(lShuf, func(part int, in []types.Record) ([]types.Record, error) {
		lBuckets := groupByBucket(in)
		rBuckets := groupByBucket(rShuf[part])
		var out []types.Record
		// Walk ranks in sorted order so emitted record order is
		// identical across retried attempts (TestByteIdenticalReexecution).
		for _, rank := range sortedBuckets(lBuckets) {
			ls := lBuckets[rank]
			rs, ok := rBuckets[rank]
			if !ok {
				continue
			}
			lSets, err := setsOf(ls)
			if err != nil {
				return nil, err
			}
			rSets, err := setsOf(rs)
			if err != nil {
				return nil, err
			}
			for i, l := range ls {
				for k, r := range rs {
					if ranks.Jaccard(lSets[i], rSets[k]) < threshold {
						continue
					}
					// Duplicate avoidance: emit only in the smallest shared
					// prefix rank of the pair.
					if smallestSharedRank(ranks, lSets[i], rSets[k], threshold) != rank {
						continue
					}
					out = append(out, joinRecs(l, r))
				}
			}
		}
		return out, nil
	})
}

// smallestSharedRank returns the smallest rank present in both records'
// prefixes — the canonical bucket for a joining pair.
func smallestSharedRank(rt *text.RankTable, a, b text.Set, threshold float64) int {
	pa := rt.AppendPrefix(nil, a, threshold)
	pb := rt.AppendPrefix(nil, b, threshold)
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i] == pb[j]:
			return pa[i]
		case pa[i] < pb[j]:
			i++
		default:
			j++
		}
	}
	return -1
}
