// Package engine is the distributed query engine the FUDJ framework is
// realized on — the role Apache AsterixDB plays in the paper. It binds
// together the catalog, the SQL front end, the rule-based planner with
// the FUDJ rewrite (§VI-C), and physical execution on the simulated
// shared-nothing cluster.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fudj/internal/catalog"
	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/sched"
	"fudj/internal/sqlparse"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// JoinMode selects how the planner implements a detected FUDJ
// predicate, letting the same query text drive the paper's three
// comparison arms.
type JoinMode int

const (
	// ModeFUDJ (default) generates the FUDJ plan of Fig. 8.
	ModeFUDJ JoinMode = iota
	// ModeBuiltin routes the predicate to a hand-built operator
	// registered via RegisterBuiltinJoin — the paper's from-scratch
	// "built-in" comparators.
	ModeBuiltin
)

// BuiltinJoinFunc is a hand-built distributed join operator: it
// receives both partitioned inputs with evaluators for their key
// expressions and produces concatenated (left ++ right) records.
type BuiltinJoinFunc func(c *cluster.Cluster, left cluster.Data, leftKey expr.Evaluator,
	right cluster.Data, rightKey expr.Evaluator, params []types.Value) (cluster.Data, error)

// Database is one engine instance: metadata plus execution settings.
// A Database is safe for concurrent Execute calls: every query passes
// through the admission scheduler, and the mutable execution settings
// below are guarded by mu so a Configure call mid-flight never races a
// running query (each query reads a setting once, at a well-defined
// point).
type Database struct {
	catalog  *catalog.Catalog
	sched    *sched.Scheduler
	schedCfg sched.Config // accumulated by options, consumed at Open
	clock    trace.Clock  // fixed at Open
	tracing  bool         // fixed at Open

	mu           sync.RWMutex // guards the mutable settings below
	execSettings              // what options write and each query copies once
	mode         JoinMode
	builtins     map[string]BuiltinJoinFunc
}

// Open creates a database. With no options it mirrors the paper's
// testbed shape at laptop scale (4 nodes × 2 cores); pass Option
// values (WithCluster, WithMemoryBudget, WithFaults, WithTracing, …)
// to configure.
func Open(opts ...Option) (*Database, error) {
	db := &Database{
		catalog:      catalog.New(),
		execSettings: execSettings{clusterCfg: cluster.Config{Nodes: 4, CoresPerNode: 2}},
		builtins:     make(map[string]BuiltinJoinFunc),
		clock:        trace.WallClock{},
	}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.applyOption(db); err != nil {
			return nil, err
		}
	}
	if err := db.clusterCfg.Validate(); err != nil {
		return nil, err
	}
	db.schedCfg.Clock = db.clock
	db.sched = sched.New(db.schedCfg)
	return db, nil
}

// MustOpen is Open that panics on error, for tests and examples.
func MustOpen(opts ...Option) *Database {
	db, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// Catalog exposes the metadata store.
func (db *Database) Catalog() *catalog.Catalog { return db.catalog }

// Configure applies options to a live database, affecting subsequent
// queries only: settings are snapshotted per query, so a Configure
// call mid-flight flips the NEXT query, never a running one. The same
// Option values Open accepts work here, except options shaping state
// fixed at Open (the admission scheduler, the clock, always-on
// tracing) — those are rejected with an error naming the option, and
// options before the failing one stay applied.
func (db *Database) Configure(opts ...Option) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if oo, ok := o.(openOnlyOption); ok {
			return fmt.Errorf("engine: option %s can only be set at Open", oo.name)
		}
		if err := o.applyOption(db); err != nil {
			return err
		}
	}
	return nil
}

// MustConfigure is Configure that panics on error, for tests and
// examples.
func (db *Database) MustConfigure(opts ...Option) {
	if err := db.Configure(opts...); err != nil {
		panic(err)
	}
}

// SetCheckpoints enables durable phase barriers for subsequent
// queries: the broadcast plan and every partition's post-shuffle input
// are checkpointed, so a node lost at a barrier recovers in place
// (reload, or recompute on a damaged file) instead of aborting and
// re-running the whole join step. It is the one setter beside Configure
// because no option can turn checkpoints off again: WithCheckpoints takes
// no argument, and the benchmark module pins that signature.
func (db *Database) SetCheckpoints(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ckpt = on
}

// RegisterBuiltinJoin installs a hand-built operator for a FUDJ
// function name, used when the join mode is ModeBuiltin.
func (db *Database) RegisterBuiltinJoin(name string, op BuiltinJoinFunc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.builtins[name] = op
}

// MemoryBudget reports the configured per-query budget (0 = unbounded).
func (db *Database) MemoryBudget() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.memBudget
}

// execSettings is the mutable execution settings: the Database embeds
// the live copy options write under mu, and each query takes its own
// once at query start, so a concurrent Configure call flips the NEXT
// query, never a running one. faultCfg and retryPol point at values
// their options installed fresh and nothing writes through.
type execSettings struct {
	clusterCfg cluster.Config
	smartTheta bool
	faultCfg   *cluster.FaultConfig
	retryPol   *cluster.RetryPolicy
	memBudget  int64
	ckpt       bool
	batchSize  int // shuffle/spill frame row cap; 0 = cluster default
}

// settings snapshots the mutable execution settings.
func (db *Database) settings() execSettings {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.execSettings
}

// builtin looks one hand-built operator up under the read lock.
func (db *Database) builtin(name string) (BuiltinJoinFunc, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	op, ok := db.builtins[name]
	return op, ok
}

// joinMode reads the join mode under the read lock.
func (db *Database) joinMode() JoinMode {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.mode
}

// CreateDataset loads a dataset into the engine.
func (db *Database) CreateDataset(name string, schema *types.Schema, recs []types.Record) error {
	return db.catalog.CreateDataset(name, schema, recs)
}

// InstallLibrary uploads a FUDJ library so CREATE JOIN can reference it.
func (db *Database) InstallLibrary(lib *core.Library) error {
	return db.catalog.InstallLibrary(lib)
}

// JoinStats carries the join-operator counters of one query execution:
// the candidate/verify funnel and the per-phase wall-time breakdown
// the paper reasons about in §VII.
type JoinStats struct {
	Candidates int64 // record pairs reaching VERIFY
	Verified   int64 // pairs passing VERIFY
	Deduped    int64 // pairs suppressed by duplicate handling
	Output     int64 // pairs leaving join operators (the logical join output)
	// Materialized is how many records FUDJ COMBINE tasks actually built
	// and handed on: the joined rows, or one partial-aggregate row per
	// group when the aggregation's local phase ran inside COMBINE.
	Materialized int64
	StateBytes   int64 // encoded summary + plan bytes moved

	// Wall time spent in each FUDJ phase (summed over FUDJ join steps).
	SummarizeTime time.Duration
	PartitionTime time.Duration
	CombineTime   time.Duration

	// Batched execution: the frames serialized across node boundaries by
	// the shuffle (see WithBatchSize), resends included.
	Batches   int64 // frames encoded
	BatchRows int64 // records carried by those frames
}

// RowsPerBatch reports the mean rows per encoded frame (0 when no
// frame was encoded).
func (s JoinStats) RowsPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchRows) / float64(s.Batches)
}

// PoolReuse is always 0: the scratch-batch pool it described is gone.
// The stub stays only because the benchmark module, which this tree may
// not edit, still reads it as types.pool_hit_ratio; the benchmark-only
// PR that drops that metric deletes it (ROADMAP, benchmark-only PRs).
func (s JoinStats) PoolReuse() float64 { return 0 }

// ClusterStats carries the simulated cluster's transport and compute
// counters for one execution.
type ClusterStats struct {
	BytesShuffled   int64
	RecordsShuffled int64
	BytesBroadcast  int64
	Tasks           int64
	MaxBusy         time.Duration // per-partition makespan (ideal hardware)
	TotalBusy       time.Duration
}

// FaultStats carries the fault-recovery counters for one execution
// (zero without injected faults): task re-executions, tasks that
// succeeded after retrying, straggler attempts abandoned for a
// speculative copy, and corrupted shuffle transfers healed by
// resending.
type FaultStats struct {
	Retries           int64
	Recovered         int64
	Speculative       int64
	CorruptionsHealed int64

	// Checkpointed execution: barrier-kill injections fired, bytes
	// written to checkpoint files, partitions restored from a durable
	// checkpoint instead of recomputation, and damaged (torn or
	// corrupt) checkpoints detected and discarded.
	BarrierKills         int64
	CheckpointBytes      int64
	PartitionsRecovered  int64
	CheckpointsDiscarded int64
}

// MemoryStats carries the memory-bounding counters for one execution
// (zero when no budget is set). Peak is the high-water mark of
// budget-governed transient memory (the shuffle's in-flight frames plus
// COMBINE builds) and never exceeds the budget; PeakInput is the
// largest materialized partition input, reported for sizing budgets.
// BytesSpilled/SpillRuns count COMBINE spill traffic (one build run
// per spilled bucket), BucketsSplit
// counts skew splits of over-budget buckets, and Backpressure counts
// the shuffle frames the budget cut short of the batch row cap.
type MemoryStats struct {
	Peak         int64
	PeakInput    int64
	BytesSpilled int64
	SpillRuns    int64
	BucketsSplit int64
	Backpressure int64
}

// Result is the outcome of one query. Execution counters are grouped
// by subsystem: Join for operator-level counts and phase times,
// Cluster for transport/compute, Faults for recovery, Memory for
// bounded-execution behaviour. Trace holds the root execution span
// when tracing was enabled (WithTracing, the Trace exec option, or
// EXPLAIN ANALYZE), nil otherwise. Metrics is the flat name→value
// view of the same counters: the cluster's, taken in one snapshot at
// query end, plus the join.* and sched.* entries the engine adds.
type Result struct {
	Schema  *types.Schema
	Rows    []types.Record
	Plan    string        // EXPLAIN-style plan description
	Elapsed time.Duration // wall-clock execution time

	Join    JoinStats
	Cluster ClusterStats
	Faults  FaultStats
	Memory  MemoryStats
	Sched   SchedStats

	Trace   *trace.Span
	Metrics map[string]int64
}

// taskCounts is one partition task's share of the join funnel. The
// O(|l|·|r|) candidate loops bump these plain fields — a shared atomic
// there is a contended cache line per candidate pair — and fold adds
// them to the query's JoinStats once per phase.
type taskCounts struct {
	candidates, verified, deduped, output, built int64
}

// fold adds every task's counts to the query's stats and returns their
// sum. A task writes its slot as the last thing a successful attempt
// does and callers fold on the query's own goroutine after the phase's
// Run has succeeded, so failed and retried attempts count nothing.
func (s *JoinStats) fold(tasks []taskCounts) taskCounts {
	var sum taskCounts
	for _, t := range tasks {
		sum.candidates += t.candidates
		sum.verified += t.verified
		sum.deduped += t.deduped
		sum.output += t.output
		sum.built += t.built
	}
	s.Candidates += sum.candidates
	s.Verified += sum.verified
	s.Deduped += sum.deduped
	s.Output += sum.output
	s.Materialized += sum.built
	return sum
}

// flush writes the join stats into the query's Result.Metrics map at
// query end, beside the cluster's counters.
func (s *JoinStats) flush(m map[string]int64) {
	m["join.candidates"] = s.Candidates
	m["join.verified"] = s.Verified
	m["join.deduped"] = s.Deduped
	m["join.output"] = s.Output
	m["join.materialized"] = s.Materialized
	m["join.state.bytes"] = s.StateBytes
	m["join.summarize.ns"] = int64(s.SummarizeTime)
	m["join.partition.ns"] = int64(s.PartitionTime)
	m["join.combine.ns"] = int64(s.CombineTime)
}

// execOpts carries per-query execution options.
type execOpts struct {
	trace    bool
	timeout  time.Duration
	priority sched.Priority
}

// ExecOption adjusts the execution of one statement.
type ExecOption func(*execOpts)

// Trace enables execution tracing for this statement only: the Result
// carries the root span in Result.Trace.
func Trace() ExecOption {
	return func(o *execOpts) { o.trace = true }
}

// Timeout bounds this statement's execution: past d the query's
// context is cancelled (aborting cluster exchanges and barrier waits)
// and the statement returns a *TimeoutError wrapping
// context.DeadlineExceeded — classified non-retryable by the fault
// machinery. Zero or negative disables the bound.
func Timeout(d time.Duration) ExecOption {
	return func(o *execOpts) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// Priority ranks this statement for admission under concurrent load
// (see sched.Priority). The default is sched.PriorityNormal.
func Priority(p sched.Priority) ExecOption {
	return func(o *execOpts) { o.priority = p }
}

// Execute parses and runs one statement. DDL statements return a
// Result with a status row; SELECT returns the query output.
func (db *Database) Execute(sql string, opts ...ExecOption) (*Result, error) {
	return db.ExecuteContext(context.Background(), sql, opts...)
}

// ExecuteContext is Execute bounded by a context: cancelling it (or
// exceeding its deadline) aborts in-flight cluster tasks and returns
// the context's error.
func (db *Database) ExecuteContext(ctx context.Context, sql string, opts ...ExecOption) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecuteStmtContext(ctx, stmt, opts...)
}

// ExecuteStmt runs an already-parsed statement.
func (db *Database) ExecuteStmt(stmt sqlparse.Statement, opts ...ExecOption) (*Result, error) {
	return db.ExecuteStmtContext(context.Background(), stmt, opts...)
}

// ExecuteStmtContext runs an already-parsed statement under a context.
func (db *Database) ExecuteStmtContext(ctx context.Context, stmt sqlparse.Statement, opts ...ExecOption) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.CreateJoin:
		names := make([]string, len(s.Params))
		typs := make([]string, len(s.Params))
		for i, p := range s.Params {
			names[i], typs[i] = p.Name, p.Type
		}
		if err := db.catalog.CreateJoin(s.Name, names, typs, s.Class, s.Library); err != nil {
			return nil, err
		}
		return statusResult(fmt.Sprintf("join %q created", s.Name)), nil

	case *sqlparse.DropJoin:
		if err := db.catalog.DropJoin(s.Name); err != nil {
			return nil, err
		}
		return statusResult(fmt.Sprintf("join %q dropped", s.Name)), nil

	case *sqlparse.Select:
		plan, err := db.plan(s)
		if err != nil {
			return nil, err
		}
		if s.Explain && !s.Analyze {
			return &Result{
				Schema: types.NewSchema(types.Field{Name: "plan", Kind: types.KindString}),
				Rows:   []types.Record{{types.NewString(plan.explain())}},
				Plan:   plan.explain(),
			}, nil
		}
		eo := execOpts{trace: db.tracing, priority: sched.PriorityNormal}
		for _, o := range opts {
			if o != nil {
				o(&eo)
			}
		}
		if s.Explain && s.Analyze {
			// EXPLAIN ANALYZE really executes the query, with tracing
			// forced so the rendered plan carries measured spans.
			eo.trace = true
		}
		// Admission: every executing SELECT holds a scheduler ticket for
		// its whole lifetime — the slot and memory lease come back only
		// when the query (including its spill/checkpoint teardown) is
		// done, which is what lets Drain guarantee a clean sweep.
		runCtx, cancel, ticket, err := db.admit(ctx, eo)
		if err != nil {
			return nil, err
		}
		defer cancel()
		defer ticket.Release()
		res, err := plan.run(runCtx, eo, ticket)
		if err != nil {
			return nil, wrapTimeout(err, eo)
		}
		if s.Explain && s.Analyze {
			// Replace the output rows with the executed plan annotated by
			// per-operator spans: one row per rendered line, partition
			// tasks folded into per-operator summaries.
			lines := trace.RenderLines(res.Trace, trace.RenderOptions{CollapseTasks: true})
			rows := make([]types.Record, len(lines))
			for i, l := range lines {
				rows[i] = types.Record{types.NewString(l)}
			}
			res.Schema = types.NewSchema(types.Field{Name: "plan", Kind: types.KindString})
			res.Rows = rows
			return res, nil
		}
		if s.Into != "" {
			// SELECT ... INTO: materialize the result as a new dataset —
			// how the paper's motivating workflow stores the Query 1
			// output as Damaged_Parks before Query 2 reads it. Output
			// column names are sanitized (dots become underscores) so the
			// new dataset's fields re-qualify cleanly in later queries.
			fields := make([]types.Field, res.Schema.Len())
			taken := make(map[string]bool, len(fields))
			for i, f := range res.Schema.Fields {
				name := sanitizeFieldName(f.Name)
				for taken[name] {
					name += "_"
				}
				taken[name] = true
				fields[i] = types.Field{Name: name, Kind: f.Kind}
			}
			if err := db.catalog.CreateDataset(s.Into, types.NewSchema(fields...), res.Rows); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// sanitizeFieldName makes a projected column name usable as a stored
// dataset field: alias qualifiers and expression punctuation collapse
// to underscores.
func sanitizeFieldName(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func statusResult(msg string) *Result {
	return &Result{
		Schema: types.NewSchema(types.Field{Name: "status", Kind: types.KindString}),
		Rows:   []types.Record{{types.NewString(msg)}},
	}
}
