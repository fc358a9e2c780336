package engine

import (
	"runtime"
	"sort"
	"sync"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/types"
)

// planSmartTheta plans the balanced theta bucket-matching operator the
// paper proposes as future work (§VIII) to lift the interval join's
// scalability limit. Instead of broadcasting one whole side it
//
//  1. reads the per-bucket record counts runFUDJ gathered from both
//     sides after assign (tiny: one count per distinct bucket id),
//  2. enumerates, in parallel, which right buckets each left bucket
//     matches, and greedily assigns each left bucket — with cost
//     |b1| * Σ|matching b2| — to the least-loaded partition,
//
// and returns the resulting layout: each left record routes to a single
// partition owning its bucket, each right record is multicast only to
// the partitions owning at least one matching left bucket, and each
// partition joins its owned left buckets against the matching right
// buckets it received. The coordinator broadcasts the owner map, and
// both routes are pure functions of it, so runFUDJ's shuffle barrier
// can rebuild a lost partition from them.
//
// Every matched pair is processed exactly once (at the owner of its
// left record), so no result is produced twice.
func planSmartTheta(clus *cluster.Cluster, name string, join core.Join, lCounts, rCounts map[int]int64) (layout, error) {
	lIDs := core.SortedIDs(lCounts)
	rIDs := core.SortedIDs(rCounts)

	// Parallel enumeration: matches[i] lists the right buckets matching
	// lIDs[i]. MATCH implementations are required to be pure, so this
	// fan-out is safe. Each worker runs under a panic guard — a MATCH
	// panic in a bare goroutine would kill the whole process instead of
	// failing the query.
	matches := make([][]int, len(lIDs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(lIDs) + workers - 1) / workers
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(lIDs) {
			hi = len(lIDs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer core.CatchPanic(name, "match", -1, nil, &workerErrs[w])
			for i := lo; i < hi; i++ {
				for _, b2 := range rIDs {
					if join.Match(lIDs[i], b2) {
						matches[i] = append(matches[i], b2)
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, werr := range workerErrs {
		if werr != nil {
			return layout{}, werr
		}
	}

	// Greedy longest-processing-time assignment of left buckets. A hot
	// bucket whose cost exceeds the per-partition fair share is split:
	// it gets several owner partitions and its records are spread over
	// them evenly, so skewed workloads (the interval join's rush
	// hours) cannot produce a straggler. Each left *record* still lands
	// on exactly one partition, so no pair is produced twice.
	type task struct {
		idx  int // position in lIDs
		cost int64
	}
	var totalCost int64
	tasks := make([]task, 0, len(lIDs))
	for i, b1 := range lIDs {
		var rhs int64
		for _, b2 := range matches[i] {
			rhs += rCounts[b2]
		}
		if rhs == 0 {
			continue // no matching right bucket: drop the left bucket
		}
		cost := lCounts[b1] * rhs
		totalCost += cost
		tasks = append(tasks, task{idx: i, cost: cost})
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].cost != tasks[j].cost {
			return tasks[i].cost > tasks[j].cost
		}
		return lIDs[tasks[i].idx] < lIDs[tasks[j].idx]
	})
	p := clus.Partitions()
	fairShare := totalCost/int64(p) + 1
	load := make([]int64, p)
	lOwners := make(map[int][]int, len(tasks)) // left bucket -> owner partitions
	ownedMatches := make([]map[int][]int, p)   // partition -> b1 -> matching b2 list
	rDest := make(map[int][]int)               // right bucket -> partitions (deduped)
	rSeen := make(map[int]map[int]bool)
	assign := func(b1 int, b2s []int, cost int64) {
		best := 0
		for i := 1; i < p; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best] += cost
		lOwners[b1] = append(lOwners[b1], best)
		if ownedMatches[best] == nil {
			ownedMatches[best] = make(map[int][]int)
		}
		ownedMatches[best][b1] = b2s
		for _, b2 := range b2s {
			s, ok := rSeen[b2]
			if !ok {
				s = make(map[int]bool)
				rSeen[b2] = s
			}
			if !s[best] {
				s[best] = true
				rDest[b2] = append(rDest[b2], best)
			}
		}
	}
	for _, t := range tasks {
		b1 := lIDs[t.idx]
		splits := int(t.cost / fairShare)
		if splits < 1 {
			splits = 1
		}
		if splits > p {
			splits = p
		}
		share := t.cost / int64(splits)
		for s := 0; s < splits; s++ {
			assign(b1, matches[t.idx], share)
		}
	}

	// The owner map travels as one entry per routed bucket: its id and a
	// bitmask of its destination partitions. A bucket without an entry
	// routes nowhere.
	clus.Broadcast(int64(len(lOwners)+len(rDest)) * (8 + 8*int64((p+63)/64)))
	return layout{
		pruned: unrouted(lCounts, func(b int) bool { return lOwners[b] != nil }) +
			unrouted(rCounts, func(b int) bool { return rDest[b] != nil }),
		// Left records spread over their bucket's owners by their position
		// in the source partition (a pure function, so re-execution and
		// recovery route identically).
		left: func(src, i int, r types.Record, _ []int) []int {
			owners := lOwners[int(r[0].Int64())]
			if len(owners) < 2 {
				return owners
			}
			k := (src + i) % len(owners)
			return owners[k : k+1]
		},
		// Right records are multicast to all partitions owning a matching
		// left bucket.
		right: func(_, _ int, r types.Record, _ []int) []int {
			return rDest[int(r[0].Int64())]
		},
		matches: func(part int) matchFn {
			return func(dst []int, b1 int, _ []int) []int { return append(dst, ownedMatches[part][b1]...) }
		},
	}, nil
}
