package engine

import (
	"context"
	"fmt"
	"sort"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/sched"
	"fudj/internal/storage"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// queryRun is what one executing query carries, built once by
// queryPlan.run and handed to the join runners and FUDJ phases as their
// receiver: the database and the query's context, its own copy of the
// mutable settings (so a concurrent Configure never changes a query
// mid-flight, and every step and every abort-and-rerun attempt sees the
// same ones), the per-query cluster, the join stats the Result will
// carry, the memory-bounding state and the recovery manager. stats is
// plain: every write to it happens on the query's own goroutine between
// phases (partition tasks count in taskCounts of their own).
type queryRun struct {
	db    *Database
	ctx   context.Context
	set   execSettings
	clus  *cluster.Cluster
	stats JoinStats
	mem   *memState
	rm    *cluster.RecoveryManager
}

// run executes a planned query on a fresh cluster instance. When
// tracing is enabled it grows a span tree mirroring the executed plan
// (query → operator → phase → partition task); all timing flows
// through the database's injected clock, never time.Now. The admission
// ticket carries the query's memory lease: under a shared pool it
// overrides the configured per-query budget (the lease IS the budget).
func (p *queryPlan) run(ctx context.Context, eo execOpts, ticket *sched.Ticket) (*Result, error) {
	db := p.db
	set := db.settings()
	start := db.clock.Now()
	var root *trace.Span
	if eo.trace {
		root = trace.NewSpan(db.clock, "query")
	}
	clus := cluster.New(set.clusterCfg)
	clus.SetClock(db.clock)
	clus.SetSpan(root)
	clus.SetContext(ctx)
	clus.SetBatchSize(set.batchSize)
	if set.retryPol != nil {
		clus.SetRetryPolicy(*set.retryPol)
	}
	if set.faultCfg != nil {
		// A fresh injector per query: fault decisions depend only on the
		// seed and the fault site, so re-running the query replays the
		// exact same failures.
		clus.SetFaults(cluster.NewFaultInjector(*set.faultCfg))
	}

	// Memory-bounded execution: the query budget, split over partitions,
	// sizes the shuffle's frame cut and the COMBINE builds, which degrade
	// into spill runs when a build exceeds its share. The budget is the
	// admission lease when a pool granted one.
	budget := set.memBudget
	if ticket != nil && ticket.Lease() > 0 {
		budget = ticket.Lease()
	}
	clus.SetMemoryBudget(budget)

	// Every query crosses its FUDJ phase barriers through a recovery
	// manager. With WithCheckpoints it owns a per-query checkpoint store
	// that makes the barriers durable, swept at teardown so no checkpoint
	// file outlives its query; without, a node lost at a barrier aborts
	// and re-runs its join step (and with no barrier fault armed the
	// manager does nothing at all).
	var store *storage.CheckpointStore
	if set.ckpt {
		var err error
		if store, err = storage.NewCheckpointStore(); err != nil {
			return nil, err
		}
	}
	q := &queryRun{db: db, ctx: ctx, set: set, clus: clus, mem: newMemState(clus), rm: clus.NewRecoveryManager(store)}
	defer q.mem.cleanup()
	defer q.rm.Sweep()

	// Scans with pushed-down filters.
	inputs := make([]cluster.Data, len(p.scans))
	schemas := make([]*types.Schema, len(p.scans))
	for i, s := range p.scans {
		sp := root.Child("scan " + s.ref.Dataset)
		prev := clus.SetSpan(sp)
		data := clus.Scatter(s.ds.Records)
		if s.filter != nil {
			pred, err := expr.Compile(s.filter, s.schema)
			if err != nil {
				return nil, err
			}
			data, err = filterData(clus, data, pred)
			if err != nil {
				return nil, err
			}
		}
		sp.Add("rows.out", int64(data.Rows()))
		sp.End()
		clus.SetSpan(prev)
		inputs[i] = data
		schemas[i] = s.schema
	}

	// Left-deep joins. Each step emits only the columns something after
	// it reads (step.out, from the planner's requireColumns). When the
	// plan aggregates and its last join is a FUDJ, the aggregation's
	// local phase — and the filters in front of it — run inside that
	// join's COMBINE: agg is then non-nil and cur holds partials.
	cur := inputs[0]
	curSchema := schemas[0]
	var agg *localAgg
	for i := range p.joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := &p.joins[i]
		right := inputs[i+1]
		rightSchema := schemas[i+1]
		name := "join " + step.kind.String()
		if step.fudj != nil {
			name += " " + step.fudj.def.Name
		}
		jsp := root.Child(name)
		prev := clus.SetSpan(jsp)
		jsp.Add("rows.in", int64(cur.Rows())+int64(right.Rows()))
		var err error
		switch step.kind {
		case joinFUDJ:
			sink := newAppendSink
			if p.foldsAggregate(i) {
				if agg, err = p.newLocalAgg(step.out, step.residual, p.post); err != nil {
					return nil, err
				}
				sink = agg.newTask
			}
			cur, err = q.runFUDJRecoverable(jsp, step, sink, cur, curSchema, right, rightSchema)
		case joinBuiltin:
			cur, err = q.runBuiltinJoin(step, cur, curSchema, right, rightSchema)
		case joinHash:
			cur, err = q.runHashJoin(step, cur, curSchema, right, rightSchema)
		case joinNLJ, joinCross:
			cur, err = q.runNLJ(step, cur, curSchema, right, rightSchema)
		default:
			err = fmt.Errorf("engine: unknown join kind %v", step.kind)
		}
		if err != nil {
			return nil, err
		}
		curSchema = step.out
		if agg == nil && len(step.residual) > 0 {
			pred, err := expr.Compile(expr.JoinConjuncts(step.residual), curSchema)
			if err != nil {
				return nil, err
			}
			if cur, err = filterData(clus, cur, pred); err != nil {
				return nil, err
			}
		}
		if agg == nil {
			jsp.Add("rows.out", int64(cur.Rows()))
		} else {
			jsp.Add("rows.out", agg.afterResidual.Load())
		}
		jsp.End()
		clus.SetSpan(prev)
	}

	// Residual filter.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(p.post) > 0 {
		fsp := root.Child("filter")
		prev := clus.SetSpan(fsp)
		if agg != nil {
			fsp.Add("rows.out", agg.afterPost.Load())
		} else {
			pred, err := expr.Compile(expr.JoinConjuncts(p.post), curSchema)
			if err != nil {
				return nil, err
			}
			if cur, err = filterData(clus, cur, pred); err != nil {
				return nil, err
			}
			fsp.Add("rows.out", int64(cur.Rows()))
		}
		fsp.End()
		clus.SetSpan(prev)
	}

	// Aggregation or projection.
	outName := "project"
	if p.aggregates() {
		outName = "aggregate"
	}
	osp := root.Child(outName)
	prevOut := clus.SetSpan(osp)
	var rows []types.Record
	var err error
	if p.aggregates() {
		if agg == nil {
			cur, err = p.runLocalAgg(clus, cur, curSchema)
		}
		if err == nil {
			rows, err = p.runGroupBy(clus, cur)
		}
		if err == nil && p.having != nil {
			rows, err = p.filterRows(rows)
		}
	} else {
		rows, err = p.runProject(clus, cur, curSchema)
	}
	if err != nil {
		return nil, err
	}
	if p.distinct {
		rows = distinctRows(rows)
	}

	// Order and limit at the coordinator.
	if len(p.orderBy) > 0 {
		if err := p.sortRows(rows); err != nil {
			return nil, err
		}
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	osp.Add("rows.out", int64(len(rows)))
	osp.End()
	clus.SetSpan(prevOut)
	root.End()

	// Take one consistent snapshot of the cluster counters (a
	// field-by-field read could mix epochs if anything were still in
	// flight), then add the join and admission entries to their map.
	reg := clus.Metrics()
	metrics := reg.Values()
	q.stats.flush(metrics)
	var schedStats SchedStats
	if ticket != nil {
		stampSched(metrics, root, ticket, db.sched.Stats())
		schedStats = SchedStats{
			QueueWait:  ticket.Wait(),
			LeaseBytes: ticket.Lease(),
			Priority:   ticket.Priority(),
		}
	}
	m := reg.Snapshot()
	q.stats.Batches = m.Batches
	q.stats.BatchRows = m.BatchRows
	res := &Result{
		Schema:  p.outSchema,
		Rows:    rows,
		Plan:    p.explain(),
		Elapsed: db.clock.Now().Sub(start),
		Join:    q.stats,
		Cluster: ClusterStats{
			BytesShuffled:   m.BytesShuffled,
			RecordsShuffled: m.RecordsShuffled,
			BytesBroadcast:  m.BytesBroadcast,
			Tasks:           m.Tasks,
			MaxBusy:         m.MaxBusy,
			TotalBusy:       m.TotalBusy,
		},
		Faults: FaultStats{
			Retries:              m.Retries,
			Recovered:            m.Recovered,
			Speculative:          m.Speculative,
			CorruptionsHealed:    m.CorruptHealed,
			BarrierKills:         m.BarrierKills,
			CheckpointBytes:      m.CheckpointBytes,
			PartitionsRecovered:  m.CheckpointRecovered,
			CheckpointsDiscarded: m.CheckpointDiscarded,
		},
		Memory: MemoryStats{
			Peak:         m.PeakMemory,
			PeakInput:    m.PeakInput,
			BytesSpilled: m.BytesSpilled,
			SpillRuns:    m.SpillRuns,
			BucketsSplit: m.BucketsSplit,
			Backpressure: m.Backpressure,
		},
		Sched:   schedStats,
		Trace:   root,
		Metrics: metrics,
	}
	return res, nil
}

func filterData(clus *cluster.Cluster, data cluster.Data, pred expr.Evaluator) (cluster.Data, error) {
	return clus.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
		var out []types.Record
		for _, rec := range in {
			ok, err := holds(pred, rec)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, rec)
			}
		}
		return out, nil
	})
}

// holds reports whether a filter keeps rec: the predicate evaluates to
// boolean true. A nil predicate keeps everything.
func holds(pred expr.Evaluator, rec types.Record) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := pred(rec)
	if err != nil {
		return false, err
	}
	return v.Kind() == types.KindBool && v.Bool(), nil
}

// runNLJ is the on-top strategy: broadcast the smaller side,
// nested-loop locally with the full predicate (nil predicate = cross
// join). The predicate sees both inputs whole; the rows emitted keep
// the step's required columns, left then right, regardless of which
// side was broadcast.
func (q *queryRun) runNLJ(step *joinStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	clus := q.clus
	var pred expr.Evaluator
	if step.cond != nil {
		var err error
		pred, err = expr.Compile(step.cond, leftSchema.Concat(rightSchema))
		if err != nil {
			return nil, err
		}
	}
	// Broadcast the smaller input so network volume and per-partition
	// build size stay bounded by min(|L|, |R|).
	broadcastLeft := left.Rows() < right.Rows()
	small, big := right, left
	if broadcastLeft {
		small, big = left, right
	}
	replicated, err := clus.Replicate(small)
	if err != nil {
		return nil, err
	}
	lw := leftSchema.Len()
	counts := make([]taskCounts, clus.Partitions())
	out, err := clus.Run(big, func(part int, in []types.Record) ([]types.Record, error) {
		var n taskCounts
		var out []types.Record
		smallRecs := replicated[part]
		pair := make(types.Record, lw+rightSchema.Len())
		for _, b := range in {
			if broadcastLeft {
				copy(pair[lw:], b)
			} else {
				copy(pair, b)
			}
			for _, s := range smallRecs {
				if broadcastLeft {
					copy(pair[:lw], s)
				} else {
					copy(pair[lw:], s)
				}
				n.candidates++
				ok, err := holds(pred, pair)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				n.verified++
				n.output++
				out = append(out, step.joinRow(pair[:lw], pair[lw:]))
			}
		}
		counts[part] = n
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	q.stats.fold(counts)
	return out, nil
}

// joinRow builds the row a step emits for one joined pair of its input
// records: the required columns of each, left then right.
func (j *joinStep) joinRow(l, r types.Record) types.Record {
	row := make(types.Record, 0, len(j.needL)+len(j.needR))
	return appendCols(appendCols(row, l, j.needL), r, j.needR)
}

// runHashJoin shuffles both sides by key hash and joins locally. Keys
// hash and compare as the = operator does (expr.EqualHash,
// expr.ValuesEqual), so 1 joins 1.0 and -0.0 joins 0.0 as they do under
// the nested-loop plan of the same predicate.
func (q *queryRun) runHashJoin(step *joinStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	clus := q.clus
	lkey, err := expr.Compile(step.hashL, leftSchema)
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(step.hashR, rightSchema)
	if err != nil {
		return nil, err
	}
	hashOf := func(ev expr.Evaluator) func(types.Record) uint64 {
		return func(r types.Record) uint64 {
			v, err := ev(r)
			if err != nil {
				return 0
			}
			return expr.EqualHash(v)
		}
	}
	lShuf, err := clus.ExchangeHash(left, hashOf(lkey))
	if err != nil {
		return nil, err
	}
	rShuf, err := clus.ExchangeHash(right, hashOf(rkey))
	if err != nil {
		return nil, err
	}
	counts := make([]taskCounts, clus.Partitions())
	out, err := clus.Run(lShuf, func(part int, in []types.Record) ([]types.Record, error) {
		// Build on the right partition.
		build := make(map[uint64][]types.Record)
		keys := make(map[uint64][]types.Value)
		for _, r := range rShuf[part] {
			v, err := rkey(r)
			if err != nil {
				return nil, err
			}
			h := expr.EqualHash(v)
			build[h] = append(build[h], r)
			keys[h] = append(keys[h], v)
		}
		var n taskCounts
		var out []types.Record
		for _, l := range in {
			v, err := lkey(l)
			if err != nil {
				return nil, err
			}
			h := expr.EqualHash(v)
			for i, r := range build[h] {
				n.candidates++
				if !expr.ValuesEqual(v, keys[h][i]) {
					continue
				}
				n.verified++
				n.output++
				out = append(out, step.joinRow(l, r))
			}
		}
		counts[part] = n
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	q.stats.fold(counts)
	return out, nil
}

// runBuiltinJoin dispatches to a registered hand-built operator. The
// operator emits its inputs' records concatenated whole, so it is handed
// inputs narrowed to the step's required columns (which, for this kind,
// include the key columns it evaluates): the FUDJ-vs-built-in comparison
// then measures the programming model, not a projection only one arm has.
func (q *queryRun) runBuiltinJoin(step *joinStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (out cluster.Data, err error) {

	f := step.fudj
	op, ok := q.db.builtin(f.def.Name)
	if !ok {
		return nil, fmt.Errorf("engine: no built-in operator registered for %q", f.def.Name)
	}
	lkey, err := expr.Compile(f.leftKey, leftSchema.Project(step.needL))
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(f.rightKey, rightSchema.Project(step.needR))
	if err != nil {
		return nil, err
	}
	defer core.CatchPanic(f.def.Name, "builtin", -1, nil, &err)
	out, err = op(q.clus, narrow(left, step.needL), lkey, narrow(right, step.needR), rkey, f.params)
	if err != nil {
		return nil, err
	}
	q.stats.Output += int64(out.Rows())
	return out, nil
}

// narrow projects every record of data onto cols.
func narrow(data cluster.Data, cols []int) cluster.Data {
	out := make(cluster.Data, len(data))
	for part, recs := range data {
		out[part] = make([]types.Record, len(recs))
		for i, r := range recs {
			out[part][i] = appendCols(make(types.Record, 0, len(cols)), r, cols)
		}
	}
	return out
}

// runProject evaluates the projection list per partition and gathers.
func (p *queryPlan) runProject(clus *cluster.Cluster, data cluster.Data, schema *types.Schema) ([]types.Record, error) {
	evals := make([]expr.Evaluator, len(p.cols))
	for i, c := range p.cols {
		ev, err := expr.Compile(c.e, schema)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	out, err := clus.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
		res := make([]types.Record, 0, len(in))
		for _, rec := range in {
			row := make(types.Record, len(evals))
			for i, ev := range evals {
				v, err := ev(rec)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			res = append(res, row)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return out.Flatten(), nil
}

// filterRows applies the (rewritten) HAVING predicate over the
// aggregation output at the coordinator.
func (p *queryPlan) filterRows(rows []types.Record) ([]types.Record, error) {
	pred, err := expr.Compile(p.having, p.outSchema)
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, row := range rows {
		ok, err := holds(pred, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// distinctRows removes duplicate output rows, preserving first-seen
// order: a row is kept when it opens a new group of the groupTable
// GROUP BY uses.
func distinctRows(rows []types.Record) []types.Record {
	groups := newGroupTable(0)
	out := rows[:0]
	for _, row := range rows {
		before := len(groups.order)
		groups.lookup(row)
		if len(groups.order) > before {
			out = append(out, row)
		}
	}
	return out
}

// sortRows orders the final rows by the ORDER BY keys, which are
// compiled against the output schema (so projection aliases work).
func (p *queryPlan) sortRows(rows []types.Record) error {
	evals := make([]expr.Evaluator, len(p.orderBy))
	for i, o := range p.orderBy {
		ev, err := expr.Compile(o.e, p.outSchema)
		if err != nil {
			return err
		}
		evals[i] = ev
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ev := range evals {
			vi, err := ev(rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := ev(rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c := vi.Compare(vj)
			if c == 0 {
				continue
			}
			if p.orderBy[k].desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
