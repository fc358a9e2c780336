package engine

import (
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// runFUDJ executes the Fig. 8 FUDJ plan for one join step:
//
//	SUMMARIZE  local aggregate per partition → encoded summaries to the
//	           coordinator → global aggregate → DIVIDE → encoded PPlan
//	           broadcast to all nodes
//	PARTITION  assign each record to buckets (unnest) and shuffle:
//	           hash exchange on bucket id of buckets both sides reach
//	           for default-match joins, broadcast + random partitioning
//	           for theta (multi-join)
//	COMBINE    per-bucket candidate pairs → VERIFY → duplicate handling
//
// Records travel through the pipeline as
// [bucket_id, key, (row id), required fields...]: the key, so verify
// never recomputes key expressions per candidate pair and duplicate
// avoidance can re-run ASSIGN on both keys of a verified pair, as the
// paper does (for a join with Spec.Rekey, the rekeyed key's
// encoding); a globally unique row id only under DedupElimination,
// whose distinct stage needs it; and of the record's own fields only the
// columns something after the join reads (step.needL / step.needR, the
// planner's requireColumns) — so the exchange, the checkpoints, spill
// runs and the memory accounting all move exactly what the consumer
// needs, and "every column" is just the case SELECT * asks for.
// COMBINE hands each accepted pair to a rowSink, one per task from
// sink: the append sink keeps the joined rows, the plan's local
// aggregation folds them and emits partials instead (DESIGN.md,
// "Required columns and the COMBINE sink").
// The step crosses two phase barriers (see recover.go): under
// WithCheckpoints the broadcast plan and every partition's post-shuffle
// input are checkpointed there and node deaths injected at a barrier
// recover from those checkpoints; without, such a death aborts the step.
func (q *queryRun) runFUDJ(jsp *trace.Span, step *joinStep, sink func() rowSink,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	ctx, clus, clock := q.ctx, q.clus, q.db.clock
	f := step.fudj
	desc := f.def.Desc
	join, err := f.def.Instance()
	if err != nil {
		return nil, err
	}

	lkey, err := expr.Compile(f.leftKey, leftSchema)
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(f.rightKey, rightSchema)
	if err != nil {
		return nil, err
	}
	params := make([]any, len(f.params))
	for i, v := range f.params {
		params[i] = v.Native()
	}

	// ---- SUMMARIZE ----
	sumSpan := jsp.Child("SUMMARIZE")
	prevSpan := clus.SetSpan(sumSpan)
	var before cluster.Snapshot // traffic counters at join start, for the span deltas
	if sumSpan != nil {
		before = clus.Metrics().Snapshot()
	}
	phaseStart := clock.Now()
	// boxed[side][part]: the prepared keys of a SUMMARIZE task, reused by
	// that partition's assign task (a retried task overwrites its slot).
	boxed := [2][][]any{make([][]any, len(left)), make([][]any, len(right))}
	summarize := func(side core.Side, data cluster.Data, key expr.Evaluator) (core.Summary, error) {
		locals, err := cluster.RunValues(clus, data, func(part int, in []types.Record) (buf []byte, err error) {
			rec := -1
			defer core.CatchPanic(f.def.Name, "summarize", part, &rec, &err)
			keys := make([]any, len(in))
			box, prep := types.NewBoxer(len(in)), core.NewPreparer(join, len(in))
			for i, r := range in {
				rec = i
				v, err := key(r)
				if err != nil {
					return nil, err
				}
				keys[i] = prep.Prepare(box.Native(v))
			}
			rec = -1
			boxed[side][part] = keys
			s := join.NewSummary(side)
			rec = 0
			s = core.LocalAggregateAll(join, side, keys, s, &rec)
			rec = -1
			return join.EncodeSummary(s)
		})
		if err != nil {
			return nil, err
		}
		// Ship the encoded local summaries to the coordinator, then
		// merge them with the global aggregate (guarded: the merge runs
		// user code at the coordinator).
		var shipped int64
		for _, buf := range locals {
			shipped += int64(len(buf))
		}
		clus.GatherBytes(shipped)
		q.stats.StateBytes += shipped
		return func() (global core.Summary, err error) {
			defer core.CatchPanic(f.def.Name, "summarize", -1, nil, &err)
			global = join.NewSummary(side)
			for _, buf := range locals {
				s, err := join.DecodeSummary(buf)
				if err != nil {
					return nil, err
				}
				global = join.GlobalAggregate(side, global, s)
			}
			return global, nil
		}()
	}

	ls, err := summarize(core.Left, left, lkey)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: summarize left: %w", f.def.Name, err)
	}
	var rs core.Summary
	if f.selfJoin {
		// Self-join optimization: replicate the summary (§VI-C). Both
		// sides hold the same keys in the same partitions, so the right
		// side's assign takes the left side's prepared keys too.
		rs = ls
		boxed[core.Right] = boxed[core.Left]
	} else {
		rs, err = summarize(core.Right, right, rkey)
		if err != nil {
			return nil, fmt.Errorf("fudj %s: summarize right: %w", f.def.Name, err)
		}
	}

	// ---- DIVIDE ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, planBuf, err := func() (plan core.PPlan, planBuf []byte, err error) {
		defer core.CatchPanic(f.def.Name, "divide", -1, nil, &err)
		plan, err = join.Divide(ls, rs, params)
		if err != nil {
			return nil, nil, fmt.Errorf("fudj %s: divide: %w", f.def.Name, err)
		}
		planBuf, err = join.EncodePlan(plan)
		if err != nil {
			return nil, nil, fmt.Errorf("fudj %s: encode plan: %w", f.def.Name, err)
		}
		return plan, planBuf, nil
	}()
	if err != nil {
		return nil, err
	}
	q.stats.StateBytes += int64(len(planBuf))
	clus.Broadcast(int64(len(planBuf)))
	// Plan barrier: the broadcast plan becomes durable, and a node
	// killed here re-reads it instead of forcing SUMMARIZE to re-run.
	planBuf, err = q.planBarrier(step.ord, planBuf)
	if err != nil {
		return nil, err
	}
	// Every node decodes its own copy, as it would on a real cluster.
	plan, err = func() (plan core.PPlan, err error) {
		defer core.CatchPanic(f.def.Name, "divide", -1, nil, &err)
		plan, err = join.DecodePlan(planBuf)
		if err != nil {
			return nil, fmt.Errorf("fudj %s: decode plan: %w", f.def.Name, err)
		}
		return plan, nil
	}()
	if err != nil {
		return nil, err
	}

	q.stats.SummarizeTime += clock.Now().Sub(phaseStart)
	if sumSpan != nil {
		sumSpan.Add("rows.in", int64(left.Rows())+int64(right.Rows()))
		sumSpan.Add("state.bytes", int64(len(planBuf)))
		sumSpan.Add("broadcast.bytes", clus.Metrics().Snapshot().BytesBroadcast-before.BytesBroadcast)
	}
	sumSpan.End()
	partSpan := jsp.Child("PARTITION")
	clus.SetSpan(partSpan)
	phaseStart = clock.Now()

	// ---- PARTITION (assign + unnest) ----
	// Records are extended with leading metadata columns:
	//   [bucket_id, key, (row id), required fields...]
	// where the globally unique row id is carried only under
	// DedupElimination. Duplicate avoidance needs nothing more: COMBINE
	// re-runs ASSIGN on the keys of a verified pair (core.DefaultDedup).
	elimination := desc.Dedup == core.DedupElimination
	extraCols := 2
	if elimination {
		extraCols = 3
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The layouts that read bucket statistics — the hash layout prunes
	// by them, smart theta plans by them — have every assign task count
	// its records per bucket id, and the coordinator gathers the counts.
	// Naive theta, the paper's measured configuration, gathers nothing.
	gather := desc.DefaultMatch || q.set.smartTheta
	shipped := core.Rekeys(join)
	// tasks[part] is partition part's assign task, left side then right
	// (a side's counts are gathered before the other runs); a retried
	// task overwrites its slot, as it does boxed[side][part].
	tasks := make([]assignTask, clus.Partitions())
	assign := func(side core.Side, data cluster.Data, key expr.Evaluator, need []int) (cluster.Data, map[int]int64, error) {
		out, err := clus.Run(data, func(part int, in []types.Record) (_ []types.Record, err error) {
			t := &tasks[part]
			*t = assignTask{in: in, key: key, need: need, part: part, rec: -1, shipped: shipped,
				elimination: elimination, out: make([]types.Record, 0, len(in)),
				arena: recordArena{width: extraCols + len(need), rows: max(len(in), 64)}}
			if gather {
				t.n = make(map[int]int64)
			}
			defer core.CatchPanic(f.def.Name, "assign", part, &t.rec, &err)
			err = core.AssignAll(join, side, boxed[side][part], plan, &t.rec, t)
			return t.out, err
		})
		if err != nil || !gather {
			return out, nil, err
		}
		return out, gatherCounts(clus, tasks), nil
	}
	lAssigned, lCounts, err := assign(core.Left, left, lkey, step.needL)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: assign left: %w", f.def.Name, err)
	}
	rAssigned, rCounts, err := assign(core.Right, right, rkey, step.needR)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: assign right: %w", f.def.Name, err)
	}
	boxed = [2][][]any{} // COMBINE prepares or decodes its keys again, on the receiving node

	// The three layouts differ only in where records travel and which
	// bucket pairs a partition joins; the exchange → barrier → COMBINE
	// tail below is shared.
	var lay layout
	switch {
	case desc.DefaultMatch:
		// Single-join: hash partition both sides on bucket id, so every
		// bucket meets exactly its namesake (the optimizer's hash-join
		// path). A bucket only one side reached can yield no pair, so
		// the coordinator broadcasts the live bucket ids (8 B each) and
		// a record of any other bucket is not shipped at all.
		byBucket := cluster.HashRoute(clus.Partitions(), func(r types.Record) uint64 { return r[0].Hash() })
		inL := func(b int) bool { return lCounts[b] > 0 }
		inR := func(b int) bool { return rCounts[b] > 0 }
		lay = layout{
			left:   cluster.FilterRoute(byBucket, func(r types.Record) bool { return inR(int(r[0].Int64())) }),
			right:  cluster.FilterRoute(byBucket, func(r types.Record) bool { return inL(int(r[0].Int64())) }),
			pruned: unrouted(lCounts, inR) + unrouted(rCounts, inL),
			matches: func(int) matchFn {
				return func(dst []int, b1 int, _ []int) []int { return append(dst, b1) }
			},
		}
		var live int64
		for b := range lCounts {
			if inR(b) {
				live++
			}
		}
		clus.Broadcast(8 * live)
	case q.set.smartTheta:
		// Balanced theta (the Theta Join Operator proposed as future
		// work in §VIII): from the gathered per-bucket record counts the
		// coordinator enumerates the bucket pairs MATCH accepts, assigns
		// each pair to a partition by greedy cost balancing, and records
		// travel only to partitions owning pairs that need them.
		lay, err = planSmartTheta(clus, f.def.Name, join, lCounts, rCounts)
		if err != nil {
			return nil, err
		}
	default:
		// Naive theta (the paper's measured configuration, §VII-C): no
		// partitioning property helps, so the build side is broadcast and
		// the probe side randomly partitioned, then buckets are matched
		// pairwise through MATCH locally.
		match := func(dst []int, b1 int, probeIDs []int) []int {
			for _, b2 := range probeIDs {
				if join.Match(b1, b2) {
					dst = append(dst, b2)
				}
			}
			return dst
		}
		p := clus.Partitions()
		lay = layout{left: cluster.ReplicateRoute(p), right: cluster.RandomRoute(p), matches: func(int) matchFn { return match }}
	}

	q.stats.PartitionTime += clock.Now().Sub(phaseStart)
	partSpan.Add("rows.out", int64(lAssigned.Rows())+int64(rAssigned.Rows()))
	if gather {
		partSpan.Add("rows.pruned", lay.pruned)
	}
	partSpan.End()
	combSpan := jsp.Child("COMBINE")
	clus.SetSpan(combSpan)
	phaseStart = clock.Now()

	// ---- COMBINE ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	build, err := clus.ExchangeMulti(lAssigned, lay.left)
	if err != nil {
		return nil, err
	}
	probe, err := clus.ExchangeMulti(rAssigned, lay.right)
	if err != nil {
		return nil, err
	}
	// Shuffle barrier: every partition's bucket inputs are durable. A
	// node killed here reloads its partitions' inputs (or rebuilds them
	// from the surviving pre-shuffle data and the layout's routes) and
	// re-runs only those partitions' COMBINE.
	err = q.shuffleBarrier(step.ord,
		shuffleSide{name: "left", data: build, pre: lAssigned, route: lay.left},
		shuffleSide{name: "right", data: probe, pre: rAssigned, route: lay.right})
	if err != nil {
		return nil, err
	}
	combSpan.Add("rows.in", int64(build.Rows())+int64(probe.Rows()))
	// Under elimination the rows COMBINE accepts still carry their row-id
	// pair through one more exchange, so COMBINE keeps them and the
	// distinct stage feeds the step's sink.
	combineSink := sink
	if elimination {
		combineSink = newAppendSink
	}
	// A task counts the funnel in plain fields of its own and leaves them
	// in its partition's slot when it succeeds; the query's stats see
	// them once, after every task has.
	counts := make([]taskCounts, clus.Partitions())
	combined, err := clus.Run(build, func(part int, in []types.Record) (out []types.Record, err error) {
		defer core.CatchPanic(f.def.Name, "combine", part, nil, &err)
		t := newCombineTask(join, plan, desc, extraCols, len(in)+len(probe[part]), combineSink())
		if err := combinePartition(q.mem, f.def.Name, part, in, probe[part], lay.matches(part), t.combineBuckets); err != nil {
			return nil, err
		}
		out = t.sink.finish()
		t.n.built = int64(len(out))
		counts[part] = t.n
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	total := q.stats.fold(counts)

	// ---- duplicate elimination stage (only DedupElimination) ----
	if elimination {
		distinct, err := clus.ExchangeHash(combined, func(r types.Record) uint64 {
			return r[0].Hash() ^ (r[1].Hash() * 0x9e3779b97f4a7c15)
		})
		if err != nil {
			return nil, err
		}
		counts = make([]taskCounts, clus.Partitions())
		combined, err = clus.Run(distinct, func(part int, in []types.Record) ([]types.Record, error) {
			var n taskCounts
			seen := make(map[[2]int64]bool, len(in))
			out := sink()
			for _, rec := range in {
				pair := [2]int64{rec[0].Int64(), rec[1].Int64()}
				if seen[pair] {
					n.deduped++
					continue
				}
				seen[pair] = true
				n.output++
				if err := out.push(rec[2:]); err != nil {
					return nil, err
				}
			}
			counts[part] = n
			return out.finish(), nil
		})
		if err != nil {
			return nil, err
		}
		// A pair is output once it survives the distinct stage.
		total.output = q.stats.fold(counts).output
	}

	q.stats.CombineTime += clock.Now().Sub(phaseStart)
	if combSpan != nil {
		combSpan.Add("rows.out", total.output)
		combSpan.Add("rows.built", total.built)
		combSpan.Add("shuffle.bytes", clus.Metrics().Snapshot().BytesShuffled-before.BytesShuffled)
	}
	combSpan.End()
	clus.SetSpan(prevSpan)
	return combined, nil
}

// combineTask is one partition task's COMBINE: the join's verify (or
// custom local join) over matched bucket pairs, duplicate handling,
// and the sink the accepted pairs go to. Everything it counts or
// scratches is the task's own.
type combineTask struct {
	join      core.Join
	plan      core.PPlan
	desc      core.Descriptor
	extraCols int

	sink   rowSink
	n      taskCounts
	box    *types.Boxer   // boxes the raw keys of every group the task prepares; nil under core.Rekeys
	prep   core.Preparer  // and prepares them, or decodes shipped ones
	ls, rs *bucketGroup   // the bucket pair in hand, keys prepared
	emit   func(i, k int) // t.pair, bound once per task
	err    error          // first sink error; the task fails with it
}

// combineChunk is the most slots per slab chunk of a COMBINE task's
// Boxer and Preparer: small, so the chunk a spilled pass's retired build
// groups pin holds few keys besides theirs.
const combineChunk = 128

// newCombineTask returns a task whose emit is bound, once, to its pair.
// keys bounds the keys it prepares, one per input record, so no chunk
// has more slots than that: a small task's slabs stay small, which
// matters most for a large key type such as a shipped text.Set.
func newCombineTask(join core.Join, plan core.PPlan, desc core.Descriptor, extraCols, keys int, sink rowSink) *combineTask {
	chunk := min(max(keys, 1), combineChunk)
	t := &combineTask{join: join, plan: plan, desc: desc, extraCols: extraCols, sink: sink,
		prep: core.NewPreparer(join, chunk)}
	if !core.Rekeys(join) {
		t.box = types.NewBoxer(chunk)
	}
	t.emit = t.pair
	return t
}

// combineBuckets joins one matched bucket pair through core.JoinBuckets,
// over the groups' key columns, which prepare or decode each record's
// key once, the first time its group is combined.
func (t *combineTask) combineBuckets(b1 int, ls *bucketGroup, b2 int, rs *bucketGroup) error {
	t.ls, t.rs = ls, rs
	lk, err := ls.prepared(t.box, t.prep)
	if err != nil {
		return err
	}
	rk, err := rs.prepared(t.box, t.prep)
	if err != nil {
		return err
	}
	t.n.candidates += int64(len(lk)) * int64(len(rk))
	core.JoinBuckets(t.join, t.desc.LocalJoin, b1, lk, b2, rk, t.plan, nil, t.emit)
	return t.err
}

// pair handles one verified position pair of the bucket pair in hand:
// it applies dedup and hands the joined row — the two records' carried
// fields, behind their row-id pair under elimination — to the sink, in
// storage the sink provides. After a sink error it only counts.
func (t *combineTask) pair(i, k int) {
	t.n.verified++
	if t.err != nil {
		return
	}
	l, r := t.ls.recs[i], t.rs.recs[k]
	switch t.desc.Dedup {
	case core.DedupAvoidance, core.DedupCustom:
		if !t.join.Dedup(int(l[0].Int64()), t.ls.keys[i], int(r[0].Int64()), t.rs.keys[k], t.plan) {
			t.n.deduped++
			return
		}
	}
	// Under elimination the pair is output only if it survives the
	// distinct stage, which tells repeats apart by the row-id pair in front.
	elimination := t.desc.Dedup == core.DedupElimination
	width := len(l) + len(r) - 2*t.extraCols
	if elimination {
		width += 2
	} else {
		t.n.output++
	}
	joined := t.sink.alloc(width)
	if elimination {
		joined = append(joined, l[2], r[2])
	}
	joined = append(joined, l[t.extraCols:]...)
	joined = append(joined, r[t.extraCols:]...)
	t.err = t.sink.push(joined)
}

// rowSink is where a join's last stage puts the rows it accepts, one
// sink per partition task. A row is built in storage alloc returns
// (length 0, room for n values) and handed to push; finish returns the
// records the task hands on.
type rowSink interface {
	alloc(n int) types.Record
	push(row types.Record) error
	finish() []types.Record
}

// appendSink keeps every row: each is built in a fresh record of
// exactly its width.
type appendSink struct{ rows []types.Record }

func newAppendSink() rowSink { return &appendSink{} }

func (s *appendSink) alloc(n int) types.Record { return make(types.Record, 0, n) }

func (s *appendSink) push(row types.Record) error {
	s.rows = append(s.rows, row)
	return nil
}

func (s *appendSink) finish() []types.Record { return s.rows }

// recordArena hands out empty records of one width, carved from shared
// chunks, so an assign task allocates its extended records once per
// chunk rather than once per record. Every record has cap == width, so
// once filled an append to it copies it and never writes into its
// neighbour. A chunk lives as long as any record carved from it.
type recordArena struct {
	chunk []types.Value
	width int
	rows  int // records per chunk
}

// next returns a record of length 0 and capacity width.
func (a *recordArena) next() types.Record {
	if len(a.chunk) < a.width {
		a.chunk = make([]types.Value, a.rows*a.width)
	}
	r := a.chunk[:0:a.width]
	a.chunk = a.chunk[a.width:]
	return r
}

// assignTask is one partition's ASSIGN: core.AssignAll over the
// partition's prepared keys, with the task as its sink. Each record is
// extended once per bucket id into [id, key, (row id), its fields at
// need], carved from the task's arena; the key is the rekeyed key's
// encoding for a join that ships its keys (core.Rekeys), else the key
// expression's value, and the row id, part<<32 | i, is carried only
// under DedupElimination.
type assignTask struct {
	in          []types.Record
	key         expr.Evaluator
	need        []int
	part        int
	shipped     bool
	elimination bool
	n           map[int]int64 // per-bucket counts, when gathered
	arena       recordArena
	out         []types.Record
	rec         int // the record in hand, for a panic to name
}

// Assigned implements core.AssignSink.
func (t *assignTask) Assigned(i int, ids []core.BucketID, key string) error {
	v := types.NewString(key)
	if !t.shipped {
		var err error
		if v, err = t.key(t.in[i]); err != nil {
			return err
		}
	}
	for _, b := range ids {
		if t.n != nil {
			t.n[b]++
		}
		ext := append(t.arena.next(), types.NewInt64(int64(b)), v)
		if t.elimination {
			ext = append(ext, types.NewInt64(int64(t.part)<<32|int64(i)))
		}
		t.out = append(t.out, appendCols(ext, t.in[i], t.need))
	}
	return nil
}

// appendCols appends rec's fields at the given positions to dst.
func appendCols(dst, rec types.Record, cols []int) types.Record {
	for _, c := range cols {
		dst = append(dst, rec[c])
	}
	return dst
}

// layout is how one COMBINE lays its inputs out over the cluster: the
// route each side's records travel (pure, so the shuffle barrier can
// rebuild a lost partition from them), and, per partition, which probe
// buckets each build bucket joins. A matchFn that asks the join's MATCH
// runs library code, so it is only called inside the guarded COMBINE
// task.
type layout struct {
	left, right cluster.Route
	matches     func(part int) matchFn
	pruned      int64 // records the routes ship nowhere: their bucket can pair with none
}

// gatherCounts ships every assign task's per-bucket record counts to the
// coordinator, 16 bytes per distinct bucket (its id and count), and
// merges them.
func gatherCounts(clus *cluster.Cluster, tasks []assignTask) map[int]int64 {
	acc := make(map[int]int64)
	var shipped int64
	for i := range tasks {
		shipped += 16 * int64(len(tasks[i].n))
		for id, n := range tasks[i].n {
			acc[id] += n
		}
	}
	clus.GatherBytes(shipped)
	return acc
}

// unrouted sums the records of the buckets a route ships nowhere.
func unrouted(counts map[int]int64, routed func(b int) bool) (n int64) {
	for b, c := range counts {
		if !routed(b) {
			n += c
		}
	}
	return n
}
