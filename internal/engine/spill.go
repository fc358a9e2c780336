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
// skew-split into chunks that fit, each chunk joined against a re-scan
// of the bucket's probe run, so even a single pathological hot bucket
// degrades to multiple passes instead of an unbounded allocation. A
// single record larger than the hard cap is the one irreducible case,
// surfaced as a structured *core.ResourceError rather than an OOM kill.
package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
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
// so implementations never call Native() per pair.
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

// bucketSpill is one spilled bucket: its build-side run and the probe
// records destined for it.
type bucketSpill struct {
	left  *storage.RunWriter
	right *storage.RunWriter
}

// combinePartition is one partition's COMBINE. build and probe are the
// partition's two inputs with the bucket id in column 0. The build side
// is grouped under the budget; the probe side, already resident as the
// task's input, is only indexed (pointers over records PeakInput
// already counts, so it is not charged). Then, build-major: for every
// build bucket in ascending id, each probe group matches names is
// joined whole against the bucket if it is resident, or appended to the
// bucket's probe run if it spilled; spilled buckets are re-joined last.
// Without a budget (or under one nothing exceeds) combine sees the
// bucket pairs in exactly that order; once buckets spill it sees the
// same multiset in a different, still deterministic, order.
func combinePartition(mem *memState, joinName string, part int,
	build, probe []types.Record, matches matchFn, combine combineFn) error {

	acct := &partAcct{metrics: mem.metrics}
	defer acct.close()
	spilled := make(map[int]*bucketSpill)
	defer func() {
		for _, bs := range spilled {
			bs.left.Remove()
			bs.right.Remove()
		}
	}()

	// spill starts bucket b's two runs and appends recs to its build
	// run. The bucket is registered before the append, so the deferred
	// Remove covers a write failure.
	spill := func(b int, recs ...types.Record) error {
		dir, err := mem.spillDir()
		if err != nil {
			return err
		}
		left, err := storage.NewRunWriter(dir)
		if err != nil {
			return err
		}
		right, err := storage.NewRunWriter(dir)
		if err != nil {
			left.Remove()
			return err
		}
		spilled[b] = &bucketSpill{left: left, right: right}
		return left.Append(recs...)
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
		if bs := spilled[b]; bs != nil {
			// The record's bucket is spilled (possibly just now): follow it.
			if err := bs.left.Append(r); err != nil {
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

	buildIDs := make([]int, 0, len(resident)+len(spilled))
	for b := range resident {
		buildIDs = append(buildIDs, b)
	}
	for b := range spilled {
		buildIDs = append(buildIDs, b)
	}
	sort.Ints(buildIDs)

	// ---- probe pass, build-major: whole probe groups against resident
	// buckets, the rest to their bucket's probe run ----
	probeGroups := groupByBucket(probe)
	probeIDs := sortedIDs(probeGroups)
	var matched []int // one scratch per task, not one slice per bucket
	for _, b1 := range buildIDs {
		ls, bs := resident[b1], spilled[b1]
		matched = matches(matched[:0], b1, probeIDs)
		for _, b2 := range matched {
			rs, ok := probeGroups[b2]
			if !ok {
				continue
			}
			var err error
			if ls != nil {
				err = combine(b1, ls, b2, rs)
			} else {
				err = bs.right.Append(rs.recs...)
			}
			if err != nil {
				return err
			}
		}
	}

	// ---- spilled pass: re-join each spilled bucket hybrid-hash style ----
	// The probe pass is over, so the resident build buckets are dead:
	// return their reservation first. Otherwise a spilled bucket's
	// build chunk (itself up to the partition share) stacks on top of
	// the resident bytes and the tracked peak can exceed the budget.
	acct.release(acct.used)
	resident = nil
	for _, b1 := range sortedIDs(spilled) {
		bs := spilled[b1]
		if err := bs.left.Close(); err != nil {
			return err
		}
		if err := bs.right.Close(); err != nil {
			return err
		}
		runs := int64(1)
		if bs.right.Records() > 0 {
			runs = 2
		}
		mem.metrics.AddSpill(bs.left.Bytes()+bs.right.Bytes(), runs)
		if bs.right.Records() == 0 {
			continue // no probe record matched this bucket
		}
		if err := joinSpilledBucket(mem, acct, b1, bs, combine); err != nil {
			return err
		}
	}
	return nil
}

// joinSpilledBucket re-joins one spilled bucket: build-side records are
// loaded in budget-sized chunks (skew splitting — one chunk when the
// bucket fits, several when its build side alone exceeds the budget),
// and the bucket's probe run is re-streamed against every chunk, one
// record at a time through one scratch group. That group is the
// bucket's, not the task's, so a task that spills nothing makes none.
func joinSpilledBucket(mem *memState, acct *partAcct, b1 int, bs *bucketSpill, combine combineFn) error {
	var probeOne bucketGroup

	lr, err := storage.OpenRun(bs.left.Path())
	if err != nil {
		return err
	}
	defer lr.Close()
	cur := newRunCursor(lr)
	chunks := 0
	for {
		// Accumulate the next build chunk under the budget (always at
		// least one record, so progress is guaranteed).
		ls := &bucketGroup{}
		var lsBytes int64
		for {
			r, ok, err := cur.peek()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			sz := r.MemSize()
			if len(ls.recs) > 0 && lsBytes+sz > mem.perPart {
				break
			}
			cur.advance()
			ls.add(r)
			lsBytes += sz
		}
		if len(ls.recs) == 0 {
			break
		}
		chunks++
		acct.reserve(lsBytes)
		err := func() error {
			defer acct.release(lsBytes)
			rr, err := storage.OpenRun(bs.right.Path())
			if err != nil {
				return err
			}
			defer rr.Close()
			for {
				frame, err := rr.Next()
				if err != nil {
					if isEOF(err) {
						return nil
					}
					return err
				}
				for _, r := range frame {
					b2 := int(r[0].Int64())
					if err := combine(b1, ls, b2, probeOne.only(r)); err != nil {
						return err
					}
				}
			}
		}()
		if err != nil {
			return err
		}
	}
	if chunks > 1 {
		mem.metrics.AddBucketSplit()
	}
	return nil
}

// runCursor adapts a frame-oriented RunReader into a record-at-a-time
// cursor, so chunk boundaries can fall inside a frame.
type runCursor struct {
	r     *storage.RunReader
	frame []types.Record
	pos   int
	eof   bool
}

func newRunCursor(r *storage.RunReader) *runCursor { return &runCursor{r: r} }

// peek returns the next record without consuming it. ok is false at
// end of run.
func (c *runCursor) peek() (types.Record, bool, error) {
	for !c.eof && c.pos >= len(c.frame) {
		frame, err := c.r.Next()
		if err != nil {
			if isEOF(err) {
				c.eof = true
				break
			}
			return nil, false, err
		}
		c.frame, c.pos = frame, 0
	}
	if c.pos >= len(c.frame) {
		return nil, false, nil
	}
	return c.frame[c.pos], true, nil
}

// advance consumes the record peek returned.
func (c *runCursor) advance() { c.pos++ }

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
