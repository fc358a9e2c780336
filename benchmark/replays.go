package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
	"unsafe"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/sched"
	"fudj/internal/serve"
	"fudj/internal/sqlparse"
	"fudj/internal/storage"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// replayCalls is how many calls a layer replay times; the metric is
// the median call.
const replayCalls = 30

// replayer times calls into the layers' exported functions, each
// replay under a span of its own. The first error sticks: later
// replays are skipped and return 0, and replays() reports it.
type replayer struct {
	wsp *trace.Span
	m   map[string]float64
	err error
}

// time runs f replayCalls times and returns the median call.
func (r *replayer) time(name string, f func() error) time.Duration {
	if r.err != nil {
		return 0
	}
	sp := r.wsp.Child("replay " + name)
	defer sp.End()
	times := make([]float64, replayCalls)
	for i := range times {
		t0 := time.Now()
		if err := f(); err != nil {
			r.err = fmt.Errorf("replay %s: %w", name, err)
			return 0
		}
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replays times each layer's exported functions on the records of the
// workload's first statement. parse_us and plan_us are the mean over
// all of its statements.
func (in *instance) replays(tmpDir string, wsp *trace.Span, m map[string]float64, p50ms float64) error {
	r := &replayer{wsp: wsp, m: m}
	st := in.w.stmts[0]
	r.frontEnd(in)
	left, lf := r.filterSide(in, st.left)
	right, rf := r.filterSide(in, st.right)
	m["expr.filter_ns_per_row"] = float64(lf+rf) / 2
	if r.err != nil {
		return r.err
	}
	r.deliver("cluster.deliver_ns_per_row", right.recs, 0)
	r.deliver("cluster.deliver_bounded_ns_per_row", right.recs, 1<<20)
	r.batchCodec(right.recs)
	r.join(st, left.keys, right.keys, p50ms)
	r.spill(tmpDir, right.recs)
	r.checkpoint(right.recs)
	r.admission()
	r.frames(in, st)
	return r.err
}

// frontEnd: sqlparse.Parse, and planning as EXPLAIN minus the parse.
func (r *replayer) frontEnd(in *instance) {
	var parse, plan []float64
	for _, st := range in.w.stmts {
		dp := r.time("sqlparse.Parse "+st.name, func() error { _, err := sqlparse.Parse(st.sql); return err })
		de := r.time("EXPLAIN "+st.name, func() error { _, err := in.db.Execute("EXPLAIN " + st.sql); return err })
		parse = append(parse, us(dp))
		plan = append(plan, us(de-dp))
	}
	r.m["sqlparse.parse_us"] = mean(parse)
	r.m["engine.plan_us"] = mean(plan)
}

// sideInput is one join side as the replays use it: the records the
// pushed-down filter keeps, and their join keys in native form.
type sideInput struct {
	recs []types.Record
	keys []any
}

// filterSide applies the side's pushed-down predicate the way the
// engine's scan does (compile against the dataset schema, evaluate per
// record) and returns the time per dataset row.
func (r *replayer) filterSide(in *instance, s side) (out sideInput, perRow time.Duration) {
	ds := in.data[s.dataset]
	out.recs = ds.Records
	if s.filter != "" && r.err == nil {
		stmt, err := sqlparse.Parse("SELECT COUNT(*) FROM " + s.dataset + " WHERE " + s.filter)
		if err != nil {
			r.err = err
			return out, 0
		}
		where := stmt.(*sqlparse.Select).Where
		d := r.time("expr.filter "+s.filter, func() error {
			pred, err := expr.Compile(where, ds.Schema)
			if err != nil {
				return err
			}
			out.recs = nil
			for _, rec := range ds.Records {
				v, err := pred(rec)
				if err != nil {
					return err
				}
				if v.Bool() {
					out.recs = append(out.recs, rec)
				}
			}
			return nil
		})
		perRow = d / time.Duration(len(ds.Records))
	}
	col := ds.Schema.MustIndex(s.keyCol)
	out.keys = make([]any, len(out.recs))
	for i, rec := range out.recs {
		out.keys[i] = rec[col].Native()
	}
	return out, perRow
}

// deliver: the records cross the node boundary in one delivery, on
// the default path (budget 0) or the credit-bounded one.
func (r *replayer) deliver(name string, recs []types.Record, budget int64) {
	c := cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 2})
	c.SetMemoryBudget(budget)
	dst := c.Partitions() - 1
	outbox := make([][][]types.Record, c.Partitions())
	for src := range outbox {
		outbox[src] = make([][]types.Record, c.Partitions())
	}
	outbox[0][dst] = recs
	d := r.time(name, func() error {
		out, err := c.Deliver(outbox)
		if err == nil && len(out[dst]) != len(recs) {
			err = fmt.Errorf("%d rows delivered, want %d", len(out[dst]), len(recs))
		}
		return err
	})
	r.m[name] = ratio(float64(d), float64(len(recs)))
}

// batchCodec: types.EncodeBatch / DecodeBatch on 1024-row frames.
func (r *replayer) batchCodec(recs []types.Record) {
	rows := float64(len(recs))
	var frames [][]byte
	enc, dec := types.NewBatch(0), types.NewBatch(0)
	d := r.time("types.EncodeBatch", func() error {
		frames = frames[:0]
		for lo := 0; lo < len(recs); lo += cluster.DefaultBatchSize {
			hi := min(lo+cluster.DefaultBatchSize, len(recs))
			frames = append(frames, types.EncodeBatch(recs[lo:hi], enc))
		}
		return nil
	})
	r.m["types.encode_ns_per_row"] = ratio(float64(d), rows)
	d = r.time("types.DecodeBatch", func() error {
		n := 0
		for _, f := range frames {
			out, err := types.DecodeBatch(f, dec)
			if err != nil {
				return err
			}
			n += len(out)
		}
		if n != len(recs) {
			return fmt.Errorf("%d rows decoded, want %d", n, len(recs))
		}
		return nil
	})
	r.m["types.decode_ns_per_row"] = ratio(float64(d), rows)
	frameBytes := 0
	for _, f := range frames {
		frameBytes += len(f)
	}
	r.m["types.frame_bytes_per_row"] = ratio(float64(frameBytes), rows)
	r.m["types.record_memsize_per_row"] = ratio(float64(types.RecordsMemSize(recs)), rows)
	r.m["types.value_bytes"] = float64(unsafe.Sizeof(types.Value{}))
}

// maxVerifyPairs caps the candidate pairs the verify replay walks.
const maxVerifyPairs = 200_000

// candidatePairs lists up to maxVerifyPairs (bucket, key) pairs that
// MATCH lets through, in bucket order: what COMBINE hands to VERIFY.
func candidatePairs(j core.Join, plan core.PPlan, l, r []any) (pairs [][4]int) {
	group := func(side core.Side, keys []any) (map[int][]int, []int) {
		g := make(map[int][]int)
		var ids []core.BucketID
		for i, k := range keys {
			ids = j.Assign(side, k, plan, ids[:0])
			for _, b := range ids {
				g[b] = append(g[b], i)
			}
		}
		order := make([]int, 0, len(g))
		for b := range g {
			order = append(order, b)
		}
		sort.Ints(order)
		return g, order
	}
	lg, lorder := group(core.Left, l)
	rg, rorder := group(core.Right, r)
	for _, b1 := range lorder {
		for _, b2 := range rorder {
			if !j.Match(b1, b2) {
				continue
			}
			for _, i := range lg[b1] {
				for _, k := range rg[b2] {
					if len(pairs) == maxVerifyPairs {
						return pairs
					}
					pairs = append(pairs, [4]int{b1, i, b2, k})
				}
			}
		}
	}
	return pairs
}

// join: the library's own functions through the core.Join its
// constructor returns, the two state codecs, and the whole algorithm
// standalone (no cluster, serde or records).
func (r *replayer) join(st statement, lkeys, rkeys []any, p50ms float64) {
	ctor, err := st.lib().Resolve(st.class)
	if err != nil {
		r.err = err
		return
	}
	j := ctor()
	keys := float64(len(lkeys) + len(rkeys))
	var ls, rs core.Summary
	d := r.time("joins.LocalAggregate", func() error {
		ls, rs = j.NewSummary(core.Left), j.NewSummary(core.Right)
		for _, k := range lkeys {
			ls = j.LocalAggregate(core.Left, k, ls)
		}
		for _, k := range rkeys {
			rs = j.LocalAggregate(core.Right, k, rs)
		}
		return nil
	})
	if r.err != nil {
		return
	}
	r.m["joins.local_agg_ns_per_key"] = ratio(float64(d), keys)
	plan, err := j.Divide(ls, rs, st.params)
	if err != nil {
		r.err = err
		return
	}
	buckets := 0
	d = r.time("joins.Assign", func() error {
		var ids []core.BucketID
		buckets = 0
		for _, k := range lkeys {
			ids = j.Assign(core.Left, k, plan, ids[:0])
			buckets += len(ids)
		}
		for _, k := range rkeys {
			ids = j.Assign(core.Right, k, plan, ids[:0])
			buckets += len(ids)
		}
		return nil
	})
	r.m["joins.assign_ns_per_key"] = ratio(float64(d), keys)
	r.m["joins.buckets_per_key"] = ratio(float64(buckets), keys)
	pairs := candidatePairs(j, plan, lkeys, rkeys)
	d = r.time("joins.Verify", func() error {
		for _, p := range pairs {
			j.Verify(p[0], lkeys[p[1]], p[2], rkeys[p[3]], plan)
		}
		return nil
	})
	r.m["joins.verify_ns_per_pair"] = ratio(float64(d), float64(len(pairs)))

	r.m["core.summary_codec_us"] = us(r.time("core.SummaryCodec", func() error {
		buf, err := j.EncodeSummary(ls)
		if err == nil {
			_, err = j.DecodeSummary(buf)
		}
		return err
	}))
	r.m["core.plan_codec_us"] = us(r.time("core.PlanCodec", func() error {
		buf, err := j.EncodePlan(plan)
		if err == nil {
			_, err = j.DecodePlan(buf)
		}
		return err
	}))
	d = r.time("core.RunStandalone", func() error {
		_, err := core.RunStandalone(ctor(), lkeys, rkeys, st.params, func(l, r any) {})
		return err
	})
	r.m["core.standalone_ms"] = ms(d)
	r.m["core.framework_overhead_ratio"] = ratio(p50ms, ms(d))
}

// spill: one storage run written (NewRunWriter/Append/Close) and read
// back (OpenRun/Next) in the benchmark's TMPDIR.
func (r *replayer) spill(dir string, recs []types.Record) {
	var run *storage.RunWriter
	defer func() {
		if run != nil {
			run.Remove()
		}
	}()
	d := r.time("storage.RunWriter", func() error {
		if run != nil {
			if err := run.Remove(); err != nil {
				return err
			}
		}
		var err error
		if run, err = storage.NewRunWriter(dir); err != nil {
			return err
		}
		if err := run.Append(recs...); err != nil {
			return err
		}
		return run.Close()
	})
	if r.err != nil {
		return
	}
	mb := float64(run.Bytes()) / 1e6
	r.m["storage.spill_write_mb_s"] = ratio(mb, d.Seconds())
	d = r.time("storage.RunReader", func() error {
		rr, err := storage.OpenRun(run.Path())
		if err != nil {
			return err
		}
		defer rr.Close()
		for {
			if _, err := rr.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	})
	r.m["storage.spill_read_mb_s"] = ratio(mb, d.Seconds())
}

// checkpoint: CheckpointStore.SaveRecords (fsynced) and LoadRecords.
func (r *replayer) checkpoint(recs []types.Record) {
	if r.err != nil {
		return
	}
	store, err := storage.NewCheckpointStore()
	if err != nil {
		r.err = err
		return
	}
	defer store.Sweep()
	var n int64
	d := r.time("storage.SaveRecords", func() error {
		var err error
		n, err = store.SaveRecords("bench", recs)
		return err
	})
	r.m["storage.ckpt_save_ms_per_mb"] = ratio(ms(d), float64(n)/1e6)
	d = r.time("storage.LoadRecords", func() error { _, err := store.LoadRecords("bench"); return err })
	r.m["storage.ckpt_load_ms_per_mb"] = ratio(ms(d), float64(n)/1e6)
}

// admission: an uncontended Scheduler.Acquire + Ticket.Release.
func (r *replayer) admission() {
	const admissions = 1000
	sc := sched.New(sched.Config{})
	d := r.time("sched.Acquire+Release", func() error {
		for i := 0; i < admissions; i++ {
			t, err := sc.Acquire(context.Background(), sched.Request{})
			if err != nil {
				return err
			}
			t.Release()
		}
		return nil
	})
	r.m["sched.acquire_release_ns"] = float64(d) / admissions
}

// frames: framing the first statement's result the way the server
// does, and reading it back the way the client does.
func (r *replayer) frames(in *instance, st statement) {
	if r.err != nil {
		return
	}
	res, err := in.db.Execute(st.sql)
	if err != nil {
		r.err = err
		return
	}
	rows := float64(len(res.Rows))
	var stream []byte
	d := r.time("serve.EncodeFrames", func() error {
		stream = append(stream[:0], serve.EncodeSchemaFrame(res.Schema)...)
		stream = append(stream, serve.EncodeBatchFrames(res.Rows)...)
		stream = append(stream, serve.EncodeTrailerFrame(serve.Trailer{
			Rows: len(res.Rows), ElapsedNs: int64(res.Elapsed), Plan: res.Plan,
			Join: res.Join, Cluster: res.Cluster, Faults: res.Faults, Memory: res.Memory, Sched: res.Sched,
			Metrics: res.Metrics,
		})...)
		return nil
	})
	r.m["serve.frame_encode_ns_per_row"] = ratio(float64(d), rows)
	d = r.time("serve.FrameReader", func() error {
		fr := serve.NewFrameReader(bytes.NewReader(stream))
		for {
			if _, _, err := fr.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	})
	r.m["serve.frame_decode_ns_per_row"] = ratio(float64(d), rows)
}
