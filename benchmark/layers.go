package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"fudj"
	"fudj/internal/sqlparse"
	"fudj/internal/trace"
)

// tracedStatements is how many times the traced phase runs each
// statement: fixed, so the phase costs seconds whatever the run length.
const tracedStatements = 20

// perLayer computes every per-layer metric of one workload after its
// measured rounds: driver statistics from the rounds, counts from the
// public Result of in-process queries, span self-times from the traced
// phase, and replay times from calling each layer's exported functions
// on the workload's own records. It writes the workload's Chrome trace.
func (wr *workloadRun) perLayer(cfg config, e2e map[string]float64) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, s := range perLayerMetrics {
		m[s.Name] = 0
	}
	bench := trace.NewSpan(trace.WallClock{}, "bench")
	wsp := bench.Child("workload " + wr.in.w.name)

	wr.driverMetrics(m)
	trees, err := wr.tracedPhase(wsp, m)
	if err != nil {
		return nil, err
	}
	if err := wr.in.replays(cfg.tmpDir, wsp, m, e2e["query_p50_ms"]); err != nil {
		return nil, err
	}
	wsp.End()
	bench.End()
	if cfg.outDir == "" {
		return m, nil
	}
	return m, writeChromeTrace(filepath.Join(cfg.outDir, "trace-"+wr.in.w.name+".json"), bench, trees)
}

// driverMetrics fills driver.*, sched.queue_wait_p50_ms and the
// serve.* counters from the measured rounds.
func (wr *workloadRun) driverMetrics(m map[string]float64) {
	var pooled, waits []float64
	var gc, pause, queries float64
	for i := range wr.rounds {
		r := &wr.rounds[i]
		pooled = append(pooled, r.pooled()...)
		waits = append(waits, r.queueWait...)
		gc += float64(r.gcCycles)
		pause += ms(r.gcPause)
		queries += float64(len(r.pooled()) + r.failed)
	}
	_, p50s := wr.perRound(func(r *round, _ float64) float64 { return median(r.pooled()) })
	attempted, failed := wr.attempted()
	m["driver.samples"] = float64(len(pooled))
	m["driver.query_p90_ms"] = percentile(pooled, 0.9)
	m["driver.query_max_ms"] = percentile(pooled, 1)
	m["driver.round_p50_spread"] = spread(p50s)
	m["driver.gc_cycles_per_query"] = ratio(gc, queries)
	m["driver.gc_pause_ms_per_query"] = ratio(pause, queries)
	m["driver.oracle_check_s"] = wr.oracleS
	m["driver.failed_fraction"] = ratio(float64(failed), float64(attempted))
	if wr.in.w.served {
		for si, st := range wr.in.w.stmts {
			m["driver."+st.name+"_p50_ms"], _ = wr.perRound(func(r *round, _ float64) float64 { return median(r.lat[si]) })
		}
		c := wr.in.srv.Counters()
		b := wr.srvBase
		m["serve.executed"] = float64(c.Executed - b.Executed)
		m["serve.failed"] = float64(c.Failed - b.Failed)
		m["serve.replayed"] = float64(c.Replayed - b.Replayed)
		m["serve.bytes_out_per_query"] = ratio(float64(c.BytesOut-b.BytesOut), float64(c.Queries-b.Queries))
		m["serve.attempts_per_query"] = ratio(float64(c.Queries-b.Queries), queries)
	}
	m["sched.queue_wait_p50_ms"] = median(waits)
}

// spanClass names the layer metric a span of the engine's query tree
// is attributed to; "" leaves its self time unattributed.
func spanClass(name string) string {
	switch {
	case strings.HasPrefix(name, "scan "):
		return "engine.scan_ms"
	case name == "SUMMARIZE":
		return "engine.summarize_ms"
	case name == "PARTITION":
		return "engine.partition_ms"
	case name == "COMBINE":
		return "engine.combine_ms"
	case name == "aggregate", name == "project":
		return "engine.output_ms"
	case name == "exchange":
		return "cluster.exchange_ms"
	case strings.HasPrefix(name, "barrier "), name == "recover":
		return "engine.barrier_ms"
	}
	return ""
}

var spanMetrics = []string{
	"engine.scan_ms", "engine.summarize_ms", "engine.partition_ms", "engine.combine_ms",
	"engine.output_ms", "engine.barrier_ms", "cluster.exchange_ms",
}

func isTask(sp *trace.Span) bool { return sp.Part() >= 0 }

// attribute splits one traced query's wall time over the layer
// metrics by span self time. Partition-task spans run in parallel
// inside their phase and belong to it, so they are neither subtracted
// nor counted. Whatever Result.Elapsed holds beyond the named spans is
// engine.unattributed_ms.
func attribute(res *fudj.Result) map[string]float64 {
	out := make(map[string]float64)
	named := 0.0
	res.Trace.Walk(func(_ int, sp *trace.Span) {
		if isTask(sp) {
			return
		}
		if cls := spanClass(sp.Name()); cls != "" {
			self := ms(selfTime(sp, func(c *trace.Span) bool { return !isTask(c) }))
			out[cls] += self
			named += self
		}
	})
	out["engine.unattributed_ms"] = ms(res.Elapsed) - named
	return out
}

// fanout is PARTITION rows out per join-input row, from the span
// counters of one traced query.
func fanout(res *fudj.Result) float64 {
	var in, out int64
	res.Trace.Walk(func(_ int, sp *trace.Span) {
		switch {
		case strings.HasPrefix(sp.Name(), "join "):
			in += sp.Counter("rows.in")
		case sp.Name() == "PARTITION":
			out += sp.Counter("rows.out")
		}
	})
	return ratio(float64(out), float64(in))
}

// counts reads the per-query counters off a public Result.
func counts(res *fudj.Result) map[string]float64 {
	j, c, mem := res.Join, res.Cluster, res.Memory
	return map[string]float64{
		"engine.candidates":           float64(j.Candidates),
		"engine.verified":             float64(j.Verified),
		"engine.deduped":              float64(j.Deduped),
		"engine.output_rows":          float64(j.Output),
		"engine.state_bytes":          float64(j.StateBytes),
		"engine.verify_hit_ratio":     ratio(float64(j.Verified), float64(j.Candidates)),
		"engine.dup_ratio":            ratio(float64(j.Deduped), float64(j.Verified)),
		"engine.mem_peak_bytes":       float64(mem.Peak),
		"engine.spill_bytes":          float64(mem.BytesSpilled),
		"engine.spill_runs":           float64(mem.SpillRuns),
		"engine.buckets_split":        float64(mem.BucketsSplit),
		"cluster.shuffle_bytes":       float64(c.BytesShuffled),
		"cluster.shuffle_records":     float64(c.RecordsShuffled),
		"cluster.broadcast_bytes":     float64(c.BytesBroadcast),
		"cluster.tasks":               float64(c.Tasks),
		"cluster.backpressure_stalls": float64(mem.Backpressure),
		"cluster.checkpoint_bytes":    float64(res.Faults.CheckpointBytes),
		"cluster.max_busy_ms":         ms(c.MaxBusy),
		"cluster.total_busy_ms":       ms(c.TotalBusy),
		"cluster.parallel_efficiency": ratio(float64(c.TotalBusy), 4*float64(c.MaxBusy)),
		"types.batches":               float64(j.Batches),
		"types.rows_per_batch":        j.RowsPerBatch(),
		"types.pool_hit_ratio":        j.PoolReuse(),
	}
}

// tracedPhase runs every statement tracedStatements times, each time
// once untraced and once with fudj.Trace(), all in process, wrapping
// its own calls in spans under wsp. A served workload's client call is
// spanned too, for the round-trip overhead. Values are the median over
// the repetitions, and the mean over the workload's statements. It
// returns the engine's span trees for the Chrome trace.
func (wr *workloadRun) tracedPhase(wsp *trace.Span, m map[string]float64) ([]*trace.Span, error) {
	in := wr.in
	var trees []*trace.Span
	perStmt := make(map[string][]float64) // metric -> one value per statement
	for si, st := range in.w.stmts {
		series := make(map[string][]float64) // metric -> one value per repetition
		var plain, traced, served, attributed []float64
		for i := 0; i < tracedStatements; i++ {
			ssp := wsp.Child("statement " + st.name)
			if in.w.served {
				csp := ssp.Child("client.Query")
				res, err := in.execs[0](st.sql)
				csp.End()
				if err == nil {
					err = in.check(si, res)
				}
				if err != nil {
					return nil, err
				}
				served = append(served, ms(csp.Duration()))
			}
			// Alternate which of the pair runs first, so that neither
			// always inherits the other's warm caches and heap.
			p, err := in.runPair(ssp, st.sql, i%2 == 1)
			ssp.End()
			for _, r := range []*fudj.Result{p.plain, p.traced} {
				if err == nil {
					err = in.check(si, r)
				}
			}
			if err != nil {
				return nil, err
			}
			res := p.traced
			plain = append(plain, p.plainMs)
			for k, v := range counts(p.plain) {
				series[k] = append(series[k], v)
			}
			wall := p.parseMs + p.execMs
			traced = append(traced, wall)
			split := attribute(res)
			inLayers := p.parseMs
			for _, k := range spanMetrics {
				series[k] = append(series[k], split[k])
				inLayers += split[k]
			}
			series["engine.unattributed_ms"] = append(series["engine.unattributed_ms"], split["engine.unattributed_ms"])
			attributed = append(attributed, ratio(inLayers, wall))
			series["engine.assign_fanout"] = append(series["engine.assign_fanout"], fanout(res))
			trees = append(trees, res.Trace)
		}
		for k, v := range series {
			perStmt[k] = append(perStmt[k], median(v))
		}
		perStmt["trace.overhead_ratio"] = append(perStmt["trace.overhead_ratio"], ratio(median(traced), median(plain)))
		perStmt["trace.attributed_ratio"] = append(perStmt["trace.attributed_ratio"], median(attributed))
		if in.w.served {
			perStmt["serve.roundtrip_overhead_us"] = append(perStmt["serve.roundtrip_overhead_us"],
				1000*(median(served)-median(plain)))
		}
	}
	for k, v := range perStmt {
		m[k] = mean(v)
	}
	return trees, nil
}

// pair is one statement run twice in process: plain, and parsed then
// executed with fudj.Trace().
type pair struct {
	plain, traced            *fudj.Result
	plainMs, parseMs, execMs float64
}

// runPair runs the pair under ssp, each call in a span of its own.
func (in *instance) runPair(ssp *trace.Span, sql string, tracedFirst bool) (p pair, err error) {
	plain := func() error {
		sp := ssp.Child("execute untraced")
		p.plain, err = in.db.Execute(sql)
		sp.End()
		p.plainMs = ms(sp.Duration())
		return err
	}
	traced := func() error {
		psp := ssp.Child("parse")
		stmt, err := sqlparse.Parse(sql)
		psp.End()
		if err != nil {
			return err
		}
		esp := ssp.Child("execute traced")
		p.traced, err = in.db.ExecuteStmt(stmt, fudj.Trace())
		esp.End()
		p.parseMs, p.execMs = ms(psp.Duration()), ms(esp.Duration())
		return err
	}
	first, second := plain, traced
	if tracedFirst {
		first, second = traced, plain
	}
	if err := first(); err != nil {
		return p, err
	}
	return p, second()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// writeChromeTrace writes the benchmark's own span tree (pid 1) and
// the engine's query trees (pid 2) as one Chrome trace_event array.
func writeChromeTrace(path string, bench *trace.Span, trees []*trace.Span) error {
	events := trace.ChromeEvents(bench)
	for _, t := range trees {
		shift := t.Start().Sub(bench.Start()).Microseconds()
		for _, e := range trace.ChromeEvents(t) {
			e.Ts += shift
			e.Pid = 2
			events = append(events, e)
		}
	}
	buf, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
