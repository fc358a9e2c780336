package builtin

import (
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/text"
	"fudj/internal/types"
)

// TextSimilarity is the hand-built prefix-filtering set-similarity
// join. It carries each record's token set through the shuffle, so
// its verify never tokenizes — the kind of local optimization a
// built-in operator can apply. params[0] is the Jaccard threshold.
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

	// Assign: record becomes [rank, tokenSet, fields...] — tokens cached,
	// sorted as Jaccard takes them.
	assign := func(data cluster.Data, key expr.Evaluator) (cluster.Data, error) {
		return c.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
			var out []types.Record
			for _, rec := range in {
				v, err := key(rec)
				if err != nil {
					return nil, err
				}
				tokens := text.TokenSet(v.Str())
				tokenVals := make([]types.Value, len(tokens))
				for i, tok := range tokens {
					tokenVals[i] = types.NewString(tok)
				}
				list := types.NewList(tokenVals)
				for _, rank := range ranks.PrefixRanks(tokens, threshold) {
					out = append(out, tag(rank, list, rec))
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

	tokensOf := func(rec types.Record) []string {
		list := rec[1].List()
		out := make([]string, len(list))
		for i, v := range list {
			out[i] = v.Str()
		}
		return out
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
			for _, l := range ls {
				lt := tokensOf(l)
				for _, r := range rs {
					rt := tokensOf(r)
					if text.Jaccard(lt, rt) < threshold {
						continue
					}
					// Duplicate avoidance: emit only in the smallest shared
					// prefix rank of the pair.
					if smallestSharedRank(ranks, lt, rt, threshold) != rank {
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
func smallestSharedRank(rt *text.RankTable, a, b []string, threshold float64) int {
	pa := rt.PrefixRanks(a, threshold)
	pb := rt.PrefixRanks(b, threshold)
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
