package engine

import (
	"fudj/internal/cluster"
	"fudj/internal/trace"
)

// Option configures a Database. Options compose left to right; later
// options win. Most options may also be applied to a live Database
// with Configure; the exceptions — options that shape state fixed at
// Open, like the admission scheduler or the clock — are rejected there
// with an error naming the option.
type Option interface {
	applyOption(db *Database) error
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*Database) error

func (f optionFunc) applyOption(db *Database) error { return f(db) }

// openOnlyOption marks an option usable at Open but not Configure:
// it configures state (scheduler, clock, tracing) fixed for the
// Database's lifetime.
type openOnlyOption struct {
	name string
	fn   func(*Database) error
}

func (o openOnlyOption) applyOption(db *Database) error { return o.fn(db) }

// WithCluster sizes the simulated cluster (nodes × cores per node).
func WithCluster(nodes, coresPerNode int) Option {
	cfg := cluster.Config{Nodes: nodes, CoresPerNode: coresPerNode}
	return optionFunc(func(db *Database) error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		db.clusterCfg = cfg
		return nil
	})
}

// WithJoinMode selects how FUDJ predicates execute (FUDJ plan or
// registered built-in operators).
func WithJoinMode(m JoinMode) Option {
	return optionFunc(func(db *Database) error {
		db.mode = m
		return nil
	})
}

// WithSmartTheta enables the balanced theta bucket-matching operator
// for multi-join FUDJs, replacing the paper's broadcast + random
// partitioning (§VII-C) with coordinator-scheduled bucket pairs — the
// Theta Join Operator the paper proposes as future work (§VIII).
// Disabled by default to match the paper's measured configuration.
func WithSmartTheta(on bool) Option {
	return optionFunc(func(db *Database) error {
		db.smartTheta = on
		return nil
	})
}

// WithMemoryBudget bounds the transient memory of every query to the
// given total bytes, split evenly over partitions. Under a budget,
// shuffle frames are cut at half a partition's share (one frame is in
// flight per destination, so receive memory is bounded by the cut) and
// COMBINE hash builds that exceed their partition's share spill bucket
// runs to disk and re-join them hybrid-hash style, skew-splitting
// buckets too large to ever fit. A record larger than the
// per-partition hard cap (2x the share) fails the query with a
// structured *core.ResourceError. Zero or negative disables bounding;
// results are the same either way.
func WithMemoryBudget(bytes int64) Option {
	return optionFunc(func(db *Database) error {
		if bytes < 0 {
			bytes = 0
		}
		db.memBudget = bytes
		return nil
	})
}

// WithConcurrencyLimit caps simultaneously executing queries: beyond
// n, arrivals queue (bounded, priority-ordered) and overflow is shed
// with a retryable *sched.AdmissionError. Zero or negative leaves
// concurrency unbounded.
func WithConcurrencyLimit(n int) Option {
	return openOnlyOption{name: "WithConcurrencyLimit", fn: func(db *Database) error {
		if n > 0 {
			db.schedCfg.MaxConcurrent = n
		}
		return nil
	}}
}

// WithQueueDepth bounds the admission queue (across all priorities).
// Waiters beyond the bound are shed immediately. Zero or negative
// selects sched.DefaultQueueDepth.
func WithQueueDepth(n int) Option {
	return openOnlyOption{name: "WithQueueDepth", fn: func(db *Database) error {
		if n > 0 {
			db.schedCfg.QueueDepth = n
		}
		return nil
	}}
}

// WithMemoryPool installs a shared memory pool: each admitted query
// leases its memory budget from these bytes at admission (requesting
// the WithMemoryBudget amount, or an even pool share by default) and
// returns the lease when it finishes. Under contention the scheduler
// may grant a reduced lease — the query then runs with a tighter
// budget and degrades into spilling — and sheds queries it cannot
// serve with a retryable *sched.AdmissionError. The sum of outstanding
// leases never exceeds the pool. Zero or negative disables pooling
// (each query uses WithMemoryBudget alone, unguarded globally).
func WithMemoryPool(bytes int64) Option {
	return openOnlyOption{name: "WithMemoryPool", fn: func(db *Database) error {
		if bytes > 0 {
			db.schedCfg.Pool = bytes
		}
		return nil
	}}
}

// WithBatchSize caps the rows per columnar frame on the execution hot
// path: shuffle transfers, spill runs, and checkpoints all move record
// batches of at most n rows. The default (n <= 0, or
// cluster.DefaultBatchSize = 1024 rows) suits most workloads;
// WithBatchSize(1) degenerates to record-at-a-time framing — the
// pre-batching baseline, kept exercisable for identity tests and
// benchmarks.
func WithBatchSize(n int) Option {
	return optionFunc(func(db *Database) error {
		if n < 0 {
			n = 0
		}
		db.batchSize = n
		return nil
	})
}

// WithCheckpoints enables durable phase barriers: every query
// checkpoints the broadcast plan after SUMMARIZE and each partition's
// post-shuffle bucket inputs after PARTITION, so a node lost at a
// barrier recovers in place — surviving partitions never re-run
// SUMMARIZE, and a damaged checkpoint is detected by checksum and
// healed by recomputation. Checkpoint files live in a per-query temp
// directory swept at teardown. Off by default: fault-free execution is
// byte-for-byte unchanged either way.
func WithCheckpoints() Option {
	return optionFunc(func(db *Database) error {
		db.ckpt = true
		return nil
	})
}

// WithFaults arms deterministic fault injection: every query execution
// builds a fresh injector from this configuration, so the same query
// sees the same faults on every run. A nil config disables injection.
func WithFaults(cfg *cluster.FaultConfig) Option {
	return optionFunc(func(db *Database) error {
		if cfg == nil {
			db.faultCfg = nil
			return nil
		}
		c := *cfg
		db.faultCfg = &c
		return nil
	})
}

// WithRetryPolicy overrides the cluster's task retry policy (backoff
// shape, attempt cap, speculation).
func WithRetryPolicy(pol cluster.RetryPolicy) Option {
	return optionFunc(func(db *Database) error {
		db.retryPol = &pol
		return nil
	})
}

// WithTracing enables execution tracing for every query: each Result
// carries its root span in Result.Trace. Per-query tracing is the
// Trace exec option instead.
func WithTracing() Option {
	return openOnlyOption{name: "WithTracing", fn: func(db *Database) error {
		db.tracing = true
		return nil
	}}
}

// WithClock injects the clock used for all execution timing (elapsed,
// phase times, busy time, span timestamps). Tests install a
// deterministic trace.FakeClock; the default is the wall clock.
func WithClock(c trace.Clock) Option {
	return openOnlyOption{name: "WithClock", fn: func(db *Database) error {
		if c != nil {
			db.clock = c
		}
		return nil
	}}
}
