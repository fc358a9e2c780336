package core

import (
	"fmt"
	"runtime/debug"
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
// SUMMARIZE / DIVIDE / ASSIGN / MATCH / VERIFY / DEDUP in order (with
// Spec.Prepare and Spec.Rekey where the engine applies them), and
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
	var inBucket []int // COMBINE's record is a position in the left bucket: its input indexes
	var desc Descriptor
	defer func() {
		if p := recover(); p != nil {
			if phase == "combine" && record >= 0 {
				record = inBucket[record]
			}
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
	prepare := func(data []any) []any {
		keys := make([]any, len(data))
		prep := NewPreparer(j, len(data))
		for i, k := range data {
			record = i
			keys[i] = prep.Prepare(k)
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
	lkeys, rkeys := prepare(left), prepare(right)
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

	// PARTITION: bucket both sides through AssignAll, as the engine
	// does. A join with Spec.Rekey hands out each rekeyed key's
	// encoding, decoded once per record as COMBINE decodes it.
	phase = "assign"
	var buckets [2]map[BucketID]*bucket
	for side, keys := range [2][]any{lkeys, rkeys} {
		s := &bucketSink{buckets: make(map[BucketID]*bucket), keys: keys,
			prep: NewPreparer(j, len(keys)), decode: Rekeys(j)}
		if err := AssignAll(j, Side(side), keys, plan, &record, s); err != nil {
			return stats, fmt.Errorf("assign %s: %w", Side(side), err)
		}
		buckets[side] = s.buckets
	}
	record = -1
	lb, rb := buckets[Left], buckets[Right]
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

	// accept applies duplicate handling to one verified position pair of
	// the bucket pair in hand and emits it.
	var b1, b2 BucketID
	var lbk, rbk *bucket
	accept := func(i, k int) {
		stats.Verified++
		if applyDedup && !j.Dedup(b1, lbk.keys[i], b2, rbk.keys[k], plan) {
			stats.Deduped++
			return
		}
		li, ri := lbk.idx[i], rbk.idx[k]
		if elim {
			pair := [2]int{li, ri}
			if _, dup := seen[pair]; dup {
				stats.Deduped++
				return
			}
			seen[pair] = struct{}{}
		}
		stats.Results++
		emit(left[li], right[ri])
	}
	joinBuckets := func(x, y BucketID) {
		b1, b2, lbk, rbk = x, y, lb[x], rb[y]
		stats.BucketPairs++
		stats.Candidates += len(lbk.keys) * len(rbk.keys)
		inBucket = lbk.idx
		JoinBuckets(j, desc.LocalJoin, b1, lbk.keys, b2, rbk.keys, plan, &record, accept)
		record = -1
	}

	if desc.DefaultMatch {
		// Single-join: only identical bucket ids match (hash-join path).
		for _, b := range SortedIDs(lb) {
			if _, ok := rb[b]; ok {
				joinBuckets(b, b)
			}
		}
	} else {
		// Multi-join: test every bucket pair through MATCH (theta path).
		lids := SortedIDs(lb)
		rids := SortedIDs(rb)
		for _, b1 := range lids {
			for _, b2 := range rids {
				if j.Match(b1, b2) {
					joinBuckets(b1, b2)
				}
			}
		}
	}
	return stats, nil
}

// bucket is one bucket's prepared keys, with each key's record index in
// the input alongside.
type bucket struct {
	keys []any
	idx  []int
}

// bucketSink is RunStandalone's AssignSink: it adds each record's key,
// decoded first when the join ships its keys encoded, to every bucket
// ASSIGN put the record in.
type bucketSink struct {
	buckets map[BucketID]*bucket
	keys    []any
	prep    Preparer
	decode  bool
}

func (s *bucketSink) Assigned(i int, ids []BucketID, key string) (err error) {
	k := s.keys[i]
	if s.decode {
		if k, err = s.prep.Decode(key); err != nil {
			return fmt.Errorf("decode key %d: %w", i, err)
		}
	}
	for _, id := range ids {
		b := s.buckets[id]
		if b == nil {
			b = &bucket{}
			s.buckets[id] = b
		}
		b.keys = append(b.keys, k)
		b.idx = append(b.idx, i)
	}
	return nil
}

func sameSlice(a, b []any) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}
