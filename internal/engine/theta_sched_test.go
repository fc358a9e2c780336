package engine

import (
	"fmt"
	"sync"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/joins/intervaljoin"
	"fudj/internal/trace"
)

// thetaSQL exercises the balanced theta operator (smart theta): a
// multi-join interval FUDJ whose MATCH accepts non-identical bucket
// pairs, so with WithSmartTheta(true) it takes the coordinator-scheduled
// bucket-pair layout.
const thetaSQL = `SELECT a.id, b.id FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2
	AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`

// TestSmartThetaConcurrentWithCheckpointedQueries span-verifies, under
// concurrency, that the shuffle barrier is one barrier for every
// layout: with a kill-at-shuffle-barrier fault armed on a checkpointed
// Database, hash-partitioned queries (spatial: DefaultMatch) and
// smart-theta queries scheduled alongside them all cross the durable
// barrier — the kill fires, the barrier span appears, partitions
// recover in place (no retry, no second SUMMARIZE). Everyone's multiset
// answer matches its serial baseline.
func TestSmartThetaConcurrentWithCheckpointedQueries(t *testing.T) {
	db := newTestDB(t, WithConcurrencyLimit(4), WithCheckpoints())
	db.MustConfigure(WithSmartTheta(true))
	hashSQL := chaosQueries[0].sql // spatial: DefaultMatch, hash-partitioned COMBINE

	thetaBase := mustQuery(t, db, thetaSQL)
	hashBase := mustQuery(t, db, hashSQL)
	if len(thetaBase.Rows) == 0 || len(hashBase.Rows) == 0 {
		t.Fatal("baselines produced no rows")
	}
	db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))

	type outcome struct {
		name      string
		base, res *Result
		err       error
	}
	const rounds = 3
	results := make(chan outcome, 2*rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		for _, q := range []struct {
			name, sql string
			base      *Result
		}{{"theta", thetaSQL, thetaBase}, {"hash", hashSQL, hashBase}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := db.Execute(q.sql, Trace())
				results <- outcome{q.name, q.base, res, err}
			}()
		}
	}
	wg.Wait()
	close(results)

	for o := range results {
		if o.err != nil {
			t.Fatalf("%s query failed: %v", o.name, o.err)
		}
		sameRows(t, "concurrent "+o.name, o.res.Rows, o.base.Rows)
		if countSpans(o.res.Trace, "barrier shuffle") == 0 {
			t.Errorf("checkpointed %s query crossed no shuffle barrier", o.name)
		}
		if o.res.Faults.BarrierKills == 0 {
			t.Errorf("%s query: armed shuffle-barrier kill never fired", o.name)
		}
		if o.res.Faults.PartitionsRecovered == 0 {
			t.Errorf("%s query: no partitions recovered from checkpoint", o.name)
		}
		if o.res.Faults.Retries != 0 {
			t.Errorf("%s query: Retries = %d, want 0 — recovery is in place", o.name, o.res.Faults.Retries)
		}
		if got := countSpans(o.res.Trace, "SUMMARIZE"); got != 1 {
			t.Errorf("%s query: %d SUMMARIZE spans, want 1 — the step must not abort-and-rerun", o.name, got)
		}
	}
}

// TestSmartThetaBarrierLossFallsBackRetryable pins the fallback every
// layout shares: a smart-theta query that loses a node at a barrier
// without a checkpoint store surfaces a retryable BarrierLossError
// internally and converges by abort-and-rerun — same answer,
// Retries > 0 — even while other queries share the scheduler.
func TestSmartThetaBarrierLossFallsBackRetryable(t *testing.T) {
	// The classification itself: a barrier loss is always retryable.
	if loss := (&cluster.BarrierLossError{Barrier: cluster.BarrierPlan}); !cluster.IsRetryable(loss) {
		t.Fatal("BarrierLossError must classify retryable")
	}

	db := newTestDB(t, WithConcurrencyLimit(4))
	db.MustConfigure(WithSmartTheta(true))
	base := mustQuery(t, db, thetaSQL)

	// No checkpoints + kill at the plan barrier: the recovery manager
	// has no store, so the loss aborts the step and the retry machinery
	// re-runs it.
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierPlan, 1)))

	var wg sync.WaitGroup
	errs := make([]error, 4)
	ress := make([]*Result, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ress[i], errs[i] = db.Execute(thetaSQL)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("theta query %d under barrier kill: %v", i, err)
		}
		sameRows(t, fmt.Sprintf("theta under barrier kill %d", i), ress[i].Rows, base.Rows)
		if ress[i].Faults.BarrierKills == 0 {
			t.Errorf("query %d: no barrier kill fired", i)
		}
		if ress[i].Faults.Retries == 0 {
			t.Errorf("query %d: no abort-and-rerun retry recorded", i)
		}
		if ress[i].Faults.PartitionsRecovered != 0 {
			t.Errorf("query %d: PartitionsRecovered = %d, want 0 without a store", i, ress[i].Faults.PartitionsRecovered)
		}
	}
}

// TestSmartThetaChargesBucketGather pins the accounting of the bucket
// statistics smart theta plans from. Beyond SUMMARIZE's broadcast (the
// summaries and the plan), the query ships exactly the gather — 16 B
// per distinct bucket per partition and side — and the owner map sent
// back to every node, one 16 B entry (id and partition bitmask) per
// bucket routed anywhere. The expectation is replayed from the rides
// data through the library's own SUMMARIZE, DIVIDE, ASSIGN and MATCH,
// on newTestDB's 2×2 cluster with its round-robin load placement.
func TestSmartThetaChargesBucketGather(t *testing.T) {
	const nodes, parts = 2, 4
	db := newTestDB(t)
	db.MustConfigure(WithSmartTheta(true))
	res, err := db.Execute(thetaSQL, Trace())
	if err != nil {
		t.Fatal(err)
	}
	var summarized int64
	res.Trace.Walk(func(_ int, sp *trace.Span) {
		if sp.Name() == "SUMMARIZE" {
			summarized += sp.Counter("broadcast.bytes")
		}
	})

	ds, err := db.Catalog().Dataset("rides")
	if err != nil {
		t.Fatal(err)
	}
	join := intervaljoin.New()
	var keys [2][parts][]any // side (vendor 1 left, 2 right), partition
	for i, r := range ds.Records {
		side := r[1].Int64() - 1
		keys[side][i%parts] = append(keys[side][i%parts], r[2].Native())
	}
	var sums [2]core.Summary
	for s := range keys {
		side := core.Side(s)
		sums[s] = join.NewSummary(side)
		for _, part := range keys[s] {
			local := join.NewSummary(side)
			for _, k := range part {
				local = join.LocalAggregate(side, k, local)
			}
			sums[s] = join.GlobalAggregate(side, sums[s], local)
		}
	}
	plan, err := join.Divide(sums[0], sums[1], []any{int64(50)})
	if err != nil {
		t.Fatal(err)
	}
	var gathered int64
	reached := [2]map[int]bool{{}, {}}
	for s := range keys {
		for _, part := range keys[s] {
			distinct := make(map[int]bool)
			for _, k := range part {
				for _, b := range join.Assign(core.Side(s), k, plan, nil) {
					distinct[b] = true
					reached[s][b] = true
				}
			}
			gathered += 16 * int64(len(distinct))
		}
	}
	var routed int64
	for s := range reached {
		for b := range reached[s] {
			for o := range reached[1-s] {
				if (s == 0 && join.Match(b, o)) || (s == 1 && join.Match(o, b)) {
					routed++
					break
				}
			}
		}
	}
	if gathered == 0 || routed == 0 {
		t.Fatalf("replay gathered %d bytes over %d routed buckets", gathered, routed)
	}
	if got, want := res.Cluster.BytesBroadcast-summarized, gathered+nodes*16*routed; got != want {
		t.Errorf("broadcast beyond SUMMARIZE = %d B, want the %d B gather + %d B owner map", got, gathered, nodes*16*routed)
	}
}
