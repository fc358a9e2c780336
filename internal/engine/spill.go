// COMBINE, per partition: the one loop every FUDJ query runs, whatever
// its layout (hash, naive theta, smart theta) and whether or not it
// carries a memory budget. The budget sizes the build; it selects no
// code. The build side's bucket groups are the memory the budget
// governs: buckets that fit stay resident and join whole probe groups
// immediately, buckets that do not are evicted to disk spill runs and
// re-joined afterwards, hybrid-hash style. Without a budget a record
// weighs nothing, so nothing is charged, nothing is evicted and the
// spilled pass has nothing to do — the in-memory join is this operator
// in the state where no bucket has spilled, not a second operator. A
// spilled bucket whose build side alone exceeds the budget is
// skew-split into chunks that fit, each chunk joined against the
// bucket's resident probe groups, so even a single pathological hot bucket
// degrades to multiple passes instead of an unbounded allocation. A
// single record larger than the hard cap is the one irreducible case,
// surfaced as a structured *core.ResourceError rather than an OOM kill.
package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/storage"
	"fudj/internal/types"
)

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// memState carries one query's memory-bounding configuration. Every
// query has one; without a budget perPart and hardCap are 0 and records
// weigh nothing (see weigh).
type memState struct {
	perPart int64 // per-partition build budget in bytes; 0 = no budget
	hardCap int64 // absolute per-partition cap; exceeding it fails the query
	metrics *cluster.Metrics

	mu  sync.Mutex
	dir string // spill directory, made on the first spill, removed by cleanup
}

// newMemState derives per-partition limits from the query budget.
func newMemState(clus *cluster.Cluster) *memState {
	perPart := clus.PartitionBudget()
	return &memState{perPart: perPart, hardCap: 2 * perPart, metrics: clus.Metrics()}
}

// weigh is what a build record costs against the budget: its resident
// size, or nothing when there is no budget to charge.
func (m *memState) weigh(r types.Record) int64 {
	if m.perPart == 0 {
		return 0
	}
	return r.MemSize()
}

// spillDir returns the query's spill directory, creating it the first
// time any partition spills: a query that never spills never touches
// the filesystem.
func (m *memState) spillDir() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir == "" {
		dir, err := os.MkdirTemp("", "fudj-spill-*")
		if err != nil {
			return "", fmt.Errorf("engine: create spill dir: %w", err)
		}
		m.dir = dir
	}
	return m.dir, nil
}

// cleanup removes the spill directory and everything spilled into it.
func (m *memState) cleanup() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir != "" {
		os.RemoveAll(m.dir)
	}
}

// combineFn joins one matched bucket pair — combineTask.combineBuckets,
// VERIFY/LocalJoin and duplicate handling in front of the task's row
// sink. Groups carry their key columns prepared (see bucketGroup),
// so implementations never box a key per pair.
type combineFn func(b1 int, ls *bucketGroup, b2 int, rs *bucketGroup) error

// matchFn appends to dst the probe buckets build bucket b1 joins with,
// in emission order, and returns the extended slice; probeIDs are the
// partition's probe bucket ids in ascending order. Ids naming no probe
// bucket of this partition are skipped by the caller.
type matchFn func(dst []int, b1 int, probeIDs []int) []int

// partAcct tracks one partition task's budget-charged bytes, mirroring
// every reservation into the cluster-wide gauge so PeakMemory is
// observable. close releases anything still held (so an aborted task —
// e.g. a UDF panic — cannot leak tracked memory).
type partAcct struct {
	metrics *cluster.Metrics
	used    int64
}

func (a *partAcct) reserve(n int64) {
	if n == 0 {
		return
	}
	a.used += n
	a.metrics.ReserveMemory(n)
}

func (a *partAcct) release(n int64) {
	if n == 0 {
		return
	}
	a.used -= n
	a.metrics.ReleaseMemory(n)
}

func (a *partAcct) close() { a.release(a.used) }

// combinePartition is one partition's COMBINE. build and probe are the
// partition's two inputs with the bucket id in column 0. The build side
// is grouped under the budget; the probe side, already resident as the
// task's input, is only indexed (pointers over records PeakInput
// already counts, so it is not charged). Then, build-major: every
// resident build bucket, in ascending id, joins each probe group
// matches names whole; spilled buckets are re-joined last, each build
// chunk against the same probe groups. Without a budget (or under one
// nothing exceeds) combine sees the bucket pairs in exactly that order;
// once buckets spill it sees the same multiset in a different, still
// deterministic, order.
func combinePartition(mem *memState, joinName string, part int,
	build, probe []types.Record, matches matchFn, combine combineFn) error {

	acct := &partAcct{metrics: mem.metrics}
	defer acct.close()
	spilled := make(map[int]*storage.RunWriter)
	defer func() {
		for _, run := range spilled {
			run.Remove()
		}
	}()

	// spill starts bucket b's build run and appends recs to it. The
	// bucket is registered before the append, so the deferred Remove
	// covers a write failure.
	spill := func(b int, recs ...types.Record) error {
		dir, err := mem.spillDir()
		if err != nil {
			return err
		}
		run, err := storage.NewRunWriter(dir)
		if err != nil {
			return err
		}
		spilled[b] = run
		return run.Append(recs...)
	}

	// ---- build pass: group the build side under the budget ----
	// A bucket takes its carved group on its first record; a bucket
	// once spilled never returns, so each group is taken at most once.
	carved := carveGroups(build)
	resident := make(map[int]*bucketGroup)
	for _, r := range build {
		b := int(r[0].Int64())
		sz := mem.weigh(r)
		if sz > mem.hardCap {
			return &core.ResourceError{
				Join: joinName, Phase: "combine", Partition: part,
				Bytes: sz, Budget: mem.hardCap,
			}
		}
		if spilled[b] == nil {
			// Evict the largest resident buckets until the record fits.
			for acct.used+sz > mem.perPart && len(resident) > 0 {
				victim := largestBucket(resident)
				if err := spill(victim, resident[victim].recs...); err != nil {
					return err
				}
				acct.release(resident[victim].bytes)
				delete(resident, victim)
			}
		}
		if run := spilled[b]; run != nil {
			// The record's bucket is spilled (possibly just now): follow it.
			if err := run.Append(r); err != nil {
				return err
			}
			continue
		}
		if acct.used+sz > mem.perPart {
			// Nothing left to evict: the record alone exceeds the budget
			// (but not the hard cap). Spill its bucket directly.
			if err := spill(b, r); err != nil {
				return err
			}
			continue
		}
		acct.reserve(sz)
		g := resident[b]
		if g == nil {
			g = carved[b]
			resident[b] = g
		}
		g.add(r)
		g.bytes += sz
	}

	// ---- probe pass, build-major: whole probe groups against resident
	// buckets ----
	probeGroups := groupByBucket(probe)
	probeIDs := core.SortedIDs(probeGroups)
	var matched []int // one scratch per task, not one slice per bucket
	// matchedGroups returns the probe buckets b1 joins that have a group
	// in this partition, in emission order.
	matchedGroups := func(b1 int) []int {
		matched = matches(matched[:0], b1, probeIDs)
		n := 0
		for _, b2 := range matched {
			if probeGroups[b2] != nil {
				matched[n] = b2
				n++
			}
		}
		matched = matched[:n]
		return matched
	}
	// joinProbe joins build group ls of bucket b1 with the probe groups
	// of b2s, each whole.
	joinProbe := func(b1 int, ls *bucketGroup, b2s []int) error {
		for _, b2 := range b2s {
			if err := combine(b1, ls, b2, probeGroups[b2]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b1 := range core.SortedIDs(resident) {
		if err := joinProbe(b1, resident[b1], matchedGroups(b1)); err != nil {
			return err
		}
	}

	// ---- spilled pass: re-join each spilled bucket hybrid-hash style ----
	// The probe pass is over, so the resident build buckets are dead:
	// return their reservation first. Otherwise a spilled bucket's
	// build chunk (itself up to the partition share) stacks on top of
	// the resident bytes and the tracked peak can exceed the budget.
	acct.release(acct.used)
	resident = nil
	for _, b1 := range core.SortedIDs(spilled) {
		run := spilled[b1]
		if err := run.Close(); err != nil {
			return err
		}
		mem.metrics.AddSpill(run.Bytes(), 1)
		b2s := matchedGroups(b1)
		if len(b2s) == 0 {
			continue // no probe record matched this bucket
		}
		err := joinSpilledBucket(mem, acct, run.Path(), func(ls *bucketGroup) error {
			return joinProbe(b1, ls, b2s)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// joinSpilledBucket re-joins one spilled bucket: its build run is
// loaded in budget-sized chunks (skew splitting — one chunk when the
// bucket fits, several when its build side alone exceeds the budget),
// and join joins every chunk with the bucket's matched probe groups, as
// the probe pass joins a resident bucket. A chunk ends before the
// record that would take it over the budget, inside a frame or not,
// and holds at least one record, so progress is guaranteed. The probe
// groups stay in memory, so they keep their prepared keys across chunks.
func joinSpilledBucket(mem *memState, acct *partAcct, path string, join func(ls *bucketGroup) error) error {
	lr, err := storage.OpenRun(path)
	if err != nil {
		return err
	}
	defer lr.Close()
	ls := &bucketGroup{}
	var lsBytes int64
	chunks := 0
	// flush joins the chunk in hand under its reservation.
	flush := func() error {
		chunks++
		acct.reserve(lsBytes) // an error return leaves it to the task's acct.close
		if err := join(ls); err != nil {
			return err
		}
		acct.release(lsBytes)
		ls, lsBytes = &bucketGroup{}, 0
		return nil
	}
	for {
		frame, err := lr.Next()
		if isEOF(err) {
			break
		}
		if err != nil {
			return err
		}
		for _, r := range frame {
			sz := r.MemSize()
			if len(ls.recs) > 0 && lsBytes+sz > mem.perPart {
				if err := flush(); err != nil {
					return err
				}
			}
			ls.add(r)
			lsBytes += sz
		}
	}
	if len(ls.recs) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	if chunks > 1 {
		mem.metrics.AddBucketSplit()
	}
	return nil
}

// largestBucket picks the eviction victim: the bucket holding the most
// resident bytes, ties broken by smaller id so eviction order is
// deterministic.
func largestBucket(resident map[int]*bucketGroup) int {
	best := -1
	var bestSz int64
	for b, g := range resident {
		if best == -1 || g.bytes > bestSz || (g.bytes == bestSz && b < best) {
			best, bestSz = b, g.bytes
		}
	}
	return best
}
