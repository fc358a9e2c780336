// Package cluster simulates the shared-nothing execution substrate the
// paper runs on (a 12-worker AsterixDB cluster). Data lives in
// partitions; partitions map onto nodes; every record that moves
// between partitions on *different* nodes is serialized through
// internal/wire and counted, so network volume and serde cost are real,
// measurable quantities rather than artifacts of in-process pointer
// passing.
//
// Parallelism model: the unit of parallel work is the partition. A
// cluster with N nodes and C cores per node runs N*C partitions, each
// processed by its own goroutine. Wall-clock speedup saturates at the
// host's physical cores, so the cluster also records per-partition busy
// time; MaxBusy approximates the makespan on ideal hardware and is what
// the scalability experiments report alongside wall time.
//
// Observability: cost counters live in one Metrics struct
// (metrics.go); when the engine attaches a trace span via SetSpan,
// every partition task and exchange emits a child span, so a traced
// query yields the full query → phase → task tree.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fudj/internal/trace"
	"fudj/internal/types"
)

// Config sizes the simulated cluster.
type Config struct {
	Nodes        int // number of shared-nothing nodes
	CoresPerNode int // worker partitions per node
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.CoresPerNode < 1 {
		return fmt.Errorf("cluster: need >=1 node and >=1 core, got %d/%d", c.Nodes, c.CoresPerNode)
	}
	return nil
}

// Partitions returns the total partition count (total parallelism).
func (c Config) Partitions() int { return c.Nodes * c.CoresPerNode }

// Data is a partitioned record set: one slice per partition.
type Data [][]types.Record

// Rows returns the total record count across partitions.
func (d Data) Rows() int {
	n := 0
	for _, p := range d {
		n += len(p)
	}
	return n
}

// Flatten concatenates all partitions (used at query output). The
// result is sized once via Rows() and filled with copy, so the
// result-collection hot path never regrows the slice.
func (d Data) Flatten() []types.Record {
	n := d.Rows()
	if n == 0 {
		return nil
	}
	out := make([]types.Record, n)
	off := 0
	for _, p := range d {
		off += copy(out[off:], p)
	}
	return out
}

// Cluster is one simulated deployment. It is safe for a single query
// at a time; the engine creates one per query execution so metrics are
// per-query.
type Cluster struct {
	cfg       Config
	metrics   *Metrics
	faults    *FaultInjector
	retry     RetryPolicy
	qctx      context.Context
	epoch     atomic.Int64
	memBudget int64 // total bytes across all partitions; 0 = unbounded
	batchSize int   // max rows per serialized shuffle frame
	clock     trace.Clock
	span      *trace.Span // current parent span for cluster ops; nil = untraced
}

// DefaultBatchSize is the row cap for one serialized shuffle frame: a
// batch this size amortizes frame dispatch while a corruption resend
// only repeats one frame, not the whole transfer.
const DefaultBatchSize = 1024

// New builds a cluster, panicking on invalid configuration (a harness
// bug, not a runtime condition).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cluster{
		cfg:       cfg,
		metrics:   newMetrics(cfg.Partitions()),
		retry:     DefaultRetryPolicy(),
		batchSize: DefaultBatchSize,
		clock:     trace.WallClock{},
	}
}

// SetBatchSize caps the rows carried by one serialized shuffle frame.
// n = 1 degenerates to record-at-a-time framing (the batching-off
// baseline); n < 1 restores the default.
func (c *Cluster) SetBatchSize(n int) {
	if n < 1 {
		n = DefaultBatchSize
	}
	c.batchSize = n
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Metrics returns the cluster's execution counters.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// SetClock replaces the clock used for busy-time accounting and span
// timestamps. The engine installs its own clock so execution packages
// never read time.Now directly.
func (c *Cluster) SetClock(clk trace.Clock) {
	if clk != nil {
		c.clock = clk
	}
}

// SetSpan installs the trace span subsequent cluster operations attach
// their task and exchange spans to, returning the previous span so
// callers can nest and restore. Cluster operations within one query
// run sequentially, so a plain swap is safe; a nil span disables task
// tracing.
func (c *Cluster) SetSpan(s *trace.Span) (prev *trace.Span) {
	prev = c.span
	c.span = s
	return prev
}

// SetFaults installs a fault injector for this cluster's lifetime.
// Install a fresh injector per query so fault decisions stay
// deterministic. A nil injector disables fault injection.
func (c *Cluster) SetFaults(fi *FaultInjector) { c.faults = fi }

// Faults returns the installed fault injector, or nil.
func (c *Cluster) Faults() *FaultInjector { return c.faults }

// SetRetryPolicy replaces the task retry policy.
func (c *Cluster) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	c.retry = p
}

// RetryPolicy returns the cluster's task retry policy, so recovery
// wrappers outside the package share its attempt budget.
func (c *Cluster) RetryPolicy() RetryPolicy { return c.retry }

// SetContext attaches a query context: cancellation or deadline expiry
// aborts in-flight partition tasks at their next checkpoint (injected
// delays and backoff sleeps abort immediately).
func (c *Cluster) SetContext(ctx context.Context) { c.qctx = ctx }

// context returns the attached query context, or Background.
func (c *Cluster) context() context.Context {
	if c.qctx != nil {
		return c.qctx
	}
	return context.Background()
}

// Err reports the attached context's cancellation state.
func (c *Cluster) Err() error { return c.context().Err() }

// nextEpoch returns a fresh fault epoch. Cluster operations within one
// query run sequentially, so the counter is deterministic.
func (c *Cluster) nextEpoch() int64 { return c.epoch.Add(1) }

// Partitions returns the total partition count.
func (c *Cluster) Partitions() int { return c.cfg.Partitions() }

// NodeOf returns the node hosting a partition.
func (c *Cluster) NodeOf(part int) int { return part / c.cfg.CoresPerNode }

// NewData allocates an empty partitioned dataset.
func (c *Cluster) NewData() Data { return make(Data, c.Partitions()) }

// Scatter distributes records round-robin over all partitions — the
// initial load placement of a dataset. Under a memory budget the
// per-partition input footprint is tracked (observability, not
// enforcement: base data placement is the storage layer's concern).
func (c *Cluster) Scatter(recs []types.Record) Data {
	data := c.NewData()
	p := c.Partitions()
	for i := range data {
		data[i] = make([]types.Record, 0, (len(recs)-i+p-1)/p)
	}
	for i, r := range recs {
		data[i%p] = append(data[i%p], r)
	}
	if c.memBudget > 0 {
		for _, part := range data {
			c.metrics.notePartitionInput(types.RecordsMemSize(part))
		}
	}
	return data
}

// Run executes f once per partition in parallel and returns the
// per-partition outputs. Busy time is accounted per partition. Each
// partition task runs under the cluster's retry policy: injected
// transient faults are retried with capped exponential backoff, and a
// failed query reports every failing partition (via errors.Join), not
// just the first one.
func (c *Cluster) Run(data Data, f func(part int, in []types.Record) ([]types.Record, error)) (Data, error) {
	out, err := runParts(c, data, f)
	if err != nil {
		return nil, err
	}
	return Data(out), nil
}

// RunValues executes f once per partition in parallel for tasks that
// produce an arbitrary value instead of records (e.g. local summaries).
// It shares Run's retry and error-aggregation semantics.
func RunValues[T any](c *Cluster, data Data, f func(part int, in []types.Record) (T, error)) ([]T, error) {
	return runParts(c, data, f)
}

// runParts is the shared parallel task scaffold behind Run and
// RunValues: one goroutine per partition, each driving its task
// through the retry policy, with all failures aggregated. Task spans
// are created in partition order before the goroutines launch, so the
// trace tree's shape is deterministic even though the tasks race.
func runParts[T any](c *Cluster, data Data, f func(part int, in []types.Record) (T, error)) ([]T, error) {
	if len(data) != c.Partitions() {
		return nil, fmt.Errorf("cluster: data has %d partitions, cluster has %d", len(data), c.Partitions())
	}
	ctx := c.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	epoch := c.nextEpoch()
	out := make([]T, c.Partitions())
	errs := make([]error, c.Partitions())
	var wg sync.WaitGroup
	for part := 0; part < c.Partitions(); part++ {
		sp := c.span.Task(part)
		wg.Add(1)
		go func(part int, sp *trace.Span) {
			defer wg.Done()
			defer sp.End()
			sp.Add("records.in", int64(len(data[part])))
			out[part], errs[part] = runTask(c, ctx, epoch, part, data[part], sp, f)
			if recs, ok := any(out[part]).([]types.Record); ok {
				sp.Add("records.out", int64(len(recs)))
			}
		}(part, sp)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var fails []error
	for part, err := range errs {
		if err != nil {
			fails = append(fails, &PartitionError{Part: part, Err: err})
		}
	}
	if len(fails) > 0 {
		return nil, errors.Join(fails...)
	}
	return out, nil
}

// runTask drives one partition task to completion under the retry
// policy: transient (injected) failures retry with capped exponential
// backoff, straggling attempts are abandoned and immediately
// re-executed, and deterministic task errors fail fast.
func runTask[T any](c *Cluster, ctx context.Context, epoch int64, part int, in []types.Record, sp *trace.Span, f func(part int, in []types.Record) (T, error)) (T, error) {
	var zero T
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var fails []error
	backoffNext := false
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if attempt > 0 {
			c.metrics.AddRetry()
			sp.Add("retries", 1)
			if backoffNext && !sleepCtx(ctx, c.retry.backoff(attempt)) {
				return zero, ctx.Err()
			}
		}
		start := c.clock.Now()
		res, err := runAttempt(c, ctx, epoch, part, attempt, in, f)
		busy := c.clock.Now().Sub(start)
		c.metrics.addBusy(part, busy)
		sp.Add("busy.ns", int64(busy))
		if err == nil {
			if attempt > 0 {
				c.metrics.update(func(s *Snapshot) { s.Recovered++ })
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		if errors.Is(err, errStragglerAbandoned) {
			// Speculation abandoned a straggling attempt before it did any
			// user work; re-execute immediately without backoff.
			c.metrics.update(func(s *Snapshot) { s.Speculative++ })
			backoffNext = false
			fails = append(fails, fmt.Errorf("attempt %d: %w", attempt, err))
			continue
		}
		if !IsRetryable(err) {
			return zero, err
		}
		backoffNext = true
		fails = append(fails, err)
	}
	return zero, fmt.Errorf("cluster: gave up after %d attempts: %w", attempts, errors.Join(fails...))
}

// runAttempt executes one task attempt, injecting faults and — when
// speculation is enabled — abandoning an attempt that has not started
// user work after SpeculativeAfter. The straggler delay models node
// slowness *before* the task runs, so an abandoned attempt never
// executed f: the speculative copy is the only execution, and task
// closures never run concurrently with themselves.
func runAttempt[T any](c *Cluster, ctx context.Context, epoch int64, part, attempt int, in []types.Record, f func(part int, in []types.Record) (T, error)) (T, error) {
	var zero T
	fi := c.faults
	if fi == nil {
		return f(part, in)
	}
	node := c.NodeOf(part)
	exec := func(actx context.Context) (T, error) {
		if d := fi.stragglerDelay(node, attempt); d > 0 {
			if !sleepCtx(actx, d) {
				return zero, actx.Err()
			}
		}
		if err := fi.crash(epoch, node, part, attempt); err != nil {
			return zero, err
		}
		if err := actx.Err(); err != nil {
			return zero, err
		}
		return f(part, in)
	}
	spec := c.retry.SpeculativeAfter
	if spec <= 0 {
		return exec(ctx)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		val T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := exec(actx)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(spec)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.val, r.err
	case <-timer.C:
		// The attempt is slow. Cancel it; if it aborts inside the injected
		// delay (never having started user work), report it abandoned so
		// the driver re-executes immediately. If it finished anyway, use
		// the result.
		cancel()
		r := <-ch
		if r.err != nil && ctx.Err() == nil && errors.Is(r.err, context.Canceled) {
			return zero, errStragglerAbandoned
		}
		return r.val, r.err
	}
}

// Route decides where one record of an exchange goes. It is a pure
// function of the source partition, the record's index within that
// source, and the record, so the value that drives a shuffle also lets
// Received rebuild any destination's input afterwards. A route may
// append its destinations to dsts (empty scratch, reused per record) or
// return a slice of its own; an empty result drops the record.
type Route func(src, i int, r types.Record, dsts []int) []int

// HashRoute sends each record to the partition its key hashes to.
func HashRoute(parts int, key func(r types.Record) uint64) Route {
	p := uint64(parts)
	return func(_, _ int, r types.Record, dsts []int) []int {
		return append(dsts, int(key(r)%p))
	}
}

// FilterRoute sends each record keep accepts where route sends it, and
// every other record nowhere.
func FilterRoute(route Route, keep func(r types.Record) bool) Route {
	return func(src, i int, r types.Record, dsts []int) []int {
		if !keep(r) {
			return dsts
		}
		return route(src, i, r, dsts)
	}
}

// ReplicateRoute sends every record to every partition — the broadcast
// side of a theta (multi-join) bucket matching stage.
func ReplicateRoute(parts int) Route {
	all := make([]int, parts)
	for i := range all {
		all[i] = i
	}
	return func(int, int, types.Record, []int) []int { return all }
}

// RandomRoute deals records round-robin (the "random partitioning"
// AsterixDB applies to one side of a theta join, §VII-C). Each source
// starts at its own partition id, so the sources' streams interleave
// evenly and the first record of partition 0 lands on partition 0.
func RandomRoute(parts int) Route {
	return func(src, i int, _ types.Record, dsts []int) []int {
		return append(dsts, (src+i)%parts)
	}
}

// ExchangeMulti exchanges under an arbitrary route: each record travels
// to every destination the route names (multicast). It is the primitive
// behind the balanced theta operator, where records go only to the
// partitions owning a bucket pair that needs them instead of a full
// broadcast.
func (c *Cluster) ExchangeMulti(data Data, route Route) (Data, error) {
	return c.exchange(data, route)
}

// ExchangeHash repartitions by a hash of a record-derived key.
func (c *Cluster) ExchangeHash(data Data, key func(r types.Record) uint64) (Data, error) {
	return c.exchange(data, HashRoute(c.Partitions(), key))
}

// Replicate copies every record of data to every partition.
func (c *Cluster) Replicate(data Data) (Data, error) {
	return c.exchange(data, ReplicateRoute(c.Partitions()))
}

// ExchangeRandom repartitions round-robin.
func (c *Cluster) ExchangeRandom(data Data) (Data, error) {
	return c.exchange(data, RandomRoute(c.Partitions()))
}

// exchange is the one shuffle every variant runs: each source
// partition sorts its records into outbox[src][dst] by route (Run
// rejects data whose partition count is not the cluster's), then
// deliver moves the outbox.
func (c *Cluster) exchange(data Data, route Route) (Data, error) {
	p := c.Partitions()
	outbox := make([][][]types.Record, p)
	_, err := c.Run(data, func(src int, in []types.Record) ([]types.Record, error) {
		box := make([][]types.Record, p)
		var scratch []int
		for i, r := range in {
			scratch = route(src, i, r, scratch[:0])
			for _, dst := range scratch {
				if dst < 0 || dst >= p {
					return nil, fmt.Errorf("cluster: route produced partition %d of %d", dst, p)
				}
				box[dst] = append(box[dst], r)
			}
		}
		outbox[src] = box
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return c.deliver(outbox)
}

// Received rebuilds what partition part received when pre was
// exchanged under route, in delivery order: sources in partition order,
// each source's records in their original order. Recovery uses it to
// recompute a lost partition's input from the surviving pre-shuffle
// data.
func Received(pre Data, route Route, part int) []types.Record {
	var out []types.Record
	var scratch []int
	for src, in := range pre {
		for i, r := range in {
			scratch = route(src, i, r, scratch[:0])
			for _, dst := range scratch {
				if dst == part {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// Deliver moves a fully built outbox[src][dst] into the destination
// partitions — the shuffle delivery edge, without the exchange's
// outbox-building side. The benchmark harness times this edge directly.
func (c *Cluster) Deliver(outbox [][][]types.Record) (Data, error) {
	return c.deliver(outbox)
}

// deliver moves outbox[src][dst] into the destination partitions. It is
// receiver-driven: one goroutine per destination pulls its column of
// the outbox source by source, frame by frame, so the delivered order
// (sources in partition order, each source's records in order) holds by
// construction and each destination has exactly one frame in flight.
// Cross-node frames are serialized through transferFrame; intra-node
// frames move by reference. Under a memory budget a frame is also cut
// at half the partition's share (see cutFrame) and charged to the
// budget-tracked gauge while in flight, so delivery holds at most half
// the budget unless single records exceed the cut. The query context
// is checked before every frame, and the first failure stops the other
// destinations at their next frame. When traced, the whole delivery is
// one "exchange" span carrying the byte/record deltas.
func (c *Cluster) deliver(outbox [][][]types.Record) (Data, error) {
	if sp := c.span.Child("exchange"); sp != nil {
		s0 := c.metrics.Snapshot()
		defer func() {
			s := c.metrics.Snapshot()
			sp.Add("shuffle.bytes", s.BytesShuffled-s0.BytesShuffled)
			sp.Add("shuffle.records", s.RecordsShuffled-s0.RecordsShuffled)
			sp.End()
		}()
	}

	p := c.Partitions()
	var epoch int64
	if c.faults != nil {
		epoch = c.nextEpoch()
	}
	maxAttempts := max(c.retry.MaxAttempts, 1)
	// Half the share, rounded up so even a one-byte share cuts frames.
	frameBytes := (c.PartitionBudget() + 1) / 2
	ctx := c.context()
	var failed atomic.Bool // set by the first destination to fail

	out := c.NewData()
	pull := func(dst int) error {
		rows := 0
		for src := 0; src < p; src++ {
			rows += len(outbox[src][dst])
		}
		if rows == 0 {
			return nil
		}
		dec := types.NewBatch(0) // this goroutine's decode scratch
		recs := make([]types.Record, 0, rows)
		var resident int64
		for src := 0; src < p; src++ {
			batch := outbox[src][dst]
			crossNode := c.NodeOf(src) != c.NodeOf(dst)
			for lo, frameIdx := 0, int64(0); lo < len(batch); frameIdx++ {
				if failed.Load() {
					return nil
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				hi, size := c.cutFrame(batch, lo, frameBytes)
				frame := batch[lo:hi]
				lo = hi
				c.metrics.ReserveMemory(size)
				var err error
				if crossNode {
					frame, err = c.transferFrame(epoch, src, dst, frame, frameIdx, maxAttempts, dec)
				}
				recs = append(recs, frame...)
				c.metrics.ReleaseMemory(size)
				if err != nil {
					return err
				}
				resident += size
			}
		}
		c.metrics.notePartitionInput(resident)
		out[dst] = recs
		return nil
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for dst := 0; dst < p; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			if errs[dst] = pull(dst); errs[dst] != nil {
				failed.Store(true)
			}
		}(dst)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cutFrame returns the end of the frame that starts at batch[lo] and,
// under a budget, its estimated resident bytes. A frame holds at most
// batchSize rows, so a corruption resend repeats one frame and not the
// whole transfer. With maxBytes > 0 it also holds at most maxBytes (a
// single larger record still travels, alone); each such budget-forced
// cut counts as one backpressure event, cuts at the row cap being
// ordinary framing. Without a budget nothing is measured and size is 0.
func (c *Cluster) cutFrame(batch []types.Record, lo int, maxBytes int64) (hi int, size int64) {
	if maxBytes <= 0 {
		return min(lo+c.batchSize, len(batch)), 0
	}
	for hi = lo; hi < len(batch) && hi-lo < c.batchSize; hi++ {
		sz := batch[hi].MemSize()
		if hi > lo && size+sz > maxBytes {
			c.metrics.update(func(s *Snapshot) { s.Backpressure++ })
			break
		}
		size += sz
	}
	return hi, size
}

// transferFrame serializes one columnar frame across a node boundary,
// injecting corruption and resending from the source's still-intact
// outbox up to the attempt budget. Every attempt, including resends, is
// charged to the shuffle and batch counters. dec is the destination
// goroutine's decode scratch.
func (c *Cluster) transferFrame(epoch int64, src, dst int, frame []types.Record, frameIdx int64, maxAttempts int, dec *types.Batch) ([]types.Record, error) {
	fi := c.faults
	var decoded []types.Record
	var err error
	attempt := 0
	for ; attempt < maxAttempts; attempt++ {
		buf := types.EncodeBatch(frame, nil)
		if fi != nil && fi.corrupt(epoch, int64(src), int64(dst), frameIdx*131071+int64(attempt)) {
			buf = corruptPayload(buf)
		}
		c.metrics.update(func(s *Snapshot) {
			s.BytesShuffled += int64(len(buf))
			s.RecordsShuffled += int64(len(frame))
			s.Batches++
			s.BatchRows += int64(len(frame))
		})
		if decoded, err = types.DecodeBatch(buf, dec); err == nil {
			break
		}
		c.metrics.AddRetry()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: shuffle %d->%d decode failed after %d attempts: %w", src, dst, attempt, err)
	}
	if attempt > 0 {
		c.metrics.update(func(s *Snapshot) { s.CorruptHealed++ })
	}
	return decoded, nil
}

// Broadcast accounts for shipping n bytes (e.g. an encoded
// partitioning plan) from the coordinator to every node.
func (c *Cluster) Broadcast(n int64) {
	c.metrics.update(func(s *Snapshot) { s.BytesBroadcast += n * int64(c.cfg.Nodes) })
}

// GatherBytes accounts for shipping n bytes in all from the partitions
// to the coordinator (e.g. encoded local summaries).
func (c *Cluster) GatherBytes(n int64) {
	c.metrics.update(func(s *Snapshot) { s.BytesBroadcast += n })
}
