package core

import (
	"fmt"
	"runtime/debug"
	"sort"
)

// Stats reports what the standalone executor did, mirroring the
// counters the distributed engine keeps. Tests and benchmarks use it
// to assert pruning behaviour (e.g. candidate pairs versus results).
type Stats struct {
	LeftRecords   int // input cardinality, left side
	RightRecords  int // input cardinality, right side
	LeftBuckets   int // distinct buckets on the left
	RightBuckets  int // distinct buckets on the right
	BucketPairs   int // bucket pairs passed by MATCH
	Candidates    int // record pairs handed to VERIFY
	Verified      int // pairs passing VERIFY
	Deduped       int // pairs suppressed by duplicate handling
	Results       int // pairs emitted
	SummaryReused bool
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("left=%d right=%d buckets=%d/%d pairs=%d cand=%d verified=%d deduped=%d results=%d",
		s.LeftRecords, s.RightRecords, s.LeftBuckets, s.RightBuckets,
		s.BucketPairs, s.Candidates, s.Verified, s.Deduped, s.Results)
}

// RunStandalone executes a FUDJ algorithm on one machine, exactly as
// the paper's standalone prototype (§VI-D2): read the data, run
// SUMMARIZE / DIVIDE / ASSIGN / MATCH / VERIFY / DEDUP in order, and
// emit every joined key pair. It is the reference semantics that the
// distributed engine must agree with, and the debugging harness for
// new join libraries.
//
// When left and right are the same slice (a self-join) and the join is
// SymmetricSummarize, the summary is computed once and reused, matching
// the self-join optimization of §VI-C.
func RunStandalone(j Join, left, right []any, params []any, emit func(l, r any)) (stats Stats, err error) {
	stats.LeftRecords = len(left)
	stats.RightRecords = len(right)

	// Panic isolation: a panic anywhere in the user's join functions is
	// converted into a structured *UDFError naming the phase and record
	// being processed, exactly as the distributed executor does.
	// Descriptor is library code too, so it is read under the guard.
	phase := "create"
	record := -1
	var desc Descriptor
	defer func() {
		if p := recover(); p != nil {
			err = &UDFError{
				Join:      desc.Name,
				Phase:     phase,
				Partition: -1,
				Record:    record,
				Panic:     p,
				Stack:     string(debug.Stack()),
			}
		}
	}()
	desc = j.Descriptor()

	// SUMMARIZE: every key is prepared once, as the engine's SUMMARIZE
	// does, then local aggregation (one "node") and a trivial global
	// merge with the identity summary so both aggregate paths execute.
	// Every later phase works on the prepared keys; emit still gets the
	// caller's raw ones.
	phase = "summarize"
	prepare := func(side Side, data []any) []any {
		keys := make([]any, len(data))
		for i, k := range data {
			record = i
			keys[i] = PrepareKey(j, side, k)
		}
		record = -1
		return keys
	}
	summarize := func(side Side, keys []any) Summary {
		s := j.NewSummary(side)
		record = 0
		s = LocalAggregateAll(j, side, keys, s, &record)
		record = -1
		return j.GlobalAggregate(side, s, j.NewSummary(side))
	}
	lkeys, rkeys := prepare(Left, left), prepare(Right, right)
	ls := summarize(Left, lkeys)
	var rs Summary
	if sameSlice(left, right) && desc.SymmetricSummarize {
		rs = ls
		stats.SummaryReused = true
	} else {
		rs = summarize(Right, rkeys)
	}

	// DIVIDE.
	phase = "divide"
	plan, err := j.Divide(ls, rs, params)
	if err != nil {
		return stats, fmt.Errorf("divide: %w", err)
	}

	// PARTITION: bucket both sides.
	phase = "assign"
	type entry struct {
		key any
		idx int
	}
	bucketize := func(side Side, keys []any) map[BucketID][]entry {
		buckets := make(map[BucketID][]entry)
		var ids []BucketID
		for i, k := range keys {
			record = i
			ids = j.Assign(side, k, plan, ids[:0])
			for _, id := range ids {
				buckets[id] = append(buckets[id], entry{key: k, idx: i})
			}
		}
		record = -1
		return buckets
	}
	lb := bucketize(Left, lkeys)
	rb := bucketize(Right, rkeys)
	stats.LeftBuckets = len(lb)
	stats.RightBuckets = len(rb)

	// COMBINE: match buckets, verify pairs, handle duplicates.
	phase = "combine"
	elim := desc.Dedup == DedupElimination
	var seen map[[2]int]struct{}
	if elim {
		seen = make(map[[2]int]struct{})
	}
	applyDedup := desc.Dedup == DedupAvoidance || desc.Dedup == DedupCustom

	// accept applies duplicate handling to one verified pair and emits.
	accept := func(b1 BucketID, le entry, b2 BucketID, re entry) {
		if applyDedup && !j.Dedup(b1, le.key, b2, re.key, plan) {
			stats.Deduped++
			return
		}
		if elim {
			pair := [2]int{le.idx, re.idx}
			if _, dup := seen[pair]; dup {
				stats.Deduped++
				return
			}
			seen[pair] = struct{}{}
		}
		stats.Results++
		emit(left[le.idx], right[re.idx])
	}

	useLocalJoin := desc.LocalJoin
	joinBuckets := func(b1 BucketID, les []entry, b2 BucketID, res []entry) {
		stats.BucketPairs++
		if useLocalJoin {
			// Custom local bucket joining (§VII-F): the library emits the
			// verified position pairs itself.
			lk := make([]any, len(les))
			for i, e := range les {
				lk[i] = e.key
			}
			rk := make([]any, len(res))
			for i, e := range res {
				rk[i] = e.key
			}
			stats.Candidates += len(les) * len(res)
			j.LocalJoin(b1, lk, b2, rk, plan, func(i, k int) {
				stats.Verified++
				accept(b1, les[i], b2, res[k])
			})
			return
		}
		for _, le := range les {
			record = le.idx
			for _, re := range res {
				stats.Candidates++
				if !j.Verify(b1, le.key, b2, re.key, plan) {
					continue
				}
				stats.Verified++
				accept(b1, le, b2, re)
			}
		}
	}

	if desc.DefaultMatch {
		// Single-join: only identical bucket ids match (hash-join path).
		for _, b := range sortedBuckets(lb) {
			if res, ok := rb[b]; ok {
				joinBuckets(b, lb[b], b, res)
			}
		}
	} else {
		// Multi-join: test every bucket pair through MATCH (theta path).
		lids := sortedBuckets(lb)
		rids := sortedBuckets(rb)
		for _, b1 := range lids {
			for _, b2 := range rids {
				if j.Match(b1, b2) {
					joinBuckets(b1, lb[b1], b2, rb[b2])
				}
			}
		}
	}
	return stats, nil
}

func sortedBuckets[V any](m map[BucketID]V) []BucketID {
	ids := make([]BucketID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func sameSlice(a, b []any) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}
