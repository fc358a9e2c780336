package engine

import (
	"fmt"
	"sync"
	"testing"

	"fudj/internal/cluster"
)

// thetaSQL exercises the balanced theta operator (smart theta): a
// multi-join interval FUDJ whose MATCH accepts non-identical bucket
// pairs, so with SetSmartTheta(true) it takes the coordinator-scheduled
// bucket-pair path — the one that crosses no durable shuffle barrier.
const thetaSQL = `SELECT a.id, b.id FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2
	AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`

// TestSmartThetaConcurrentWithCheckpointedQueries span-verifies the
// barrier exclusion under concurrency: with a kill-at-shuffle-barrier
// fault armed on a checkpointed Database, hash-partitioned queries
// (spatial: DefaultMatch) cross the durable shuffle barrier — the kill
// fires, the barrier span appears, partitions recover — while
// smart-theta queries scheduled alongside them never cross it: no
// barrier span, no kill. Everyone's multiset answer matches its serial
// baseline.
func TestSmartThetaConcurrentWithCheckpointedQueries(t *testing.T) {
	db := newTestDB(t, WithConcurrencyLimit(4), WithCheckpoints())
	db.SetSmartTheta(true)
	hashSQL := chaosQueries[0].sql // spatial: DefaultMatch, hash-partitioned COMBINE

	thetaBase := mustQuery(t, db, thetaSQL)
	hashBase := mustQuery(t, db, hashSQL)
	if len(thetaBase.Rows) == 0 || len(hashBase.Rows) == 0 {
		t.Fatal("baselines produced no rows")
	}
	db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))

	type outcome struct {
		name string
		res  *Result
		err  error
	}
	const rounds = 3
	results := make(chan outcome, 2*rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		for _, q := range []struct{ name, sql string }{{"theta", thetaSQL}, {"hash", hashSQL}} {
			wg.Add(1)
			go func(name, sql string) {
				defer wg.Done()
				res, err := db.Execute(sql, Trace())
				results <- outcome{name, res, err}
			}(q.name, q.sql)
		}
	}
	wg.Wait()
	close(results)

	for o := range results {
		if o.err != nil {
			t.Fatalf("%s query failed: %v", o.name, o.err)
		}
		shuffleBarriers := countSpans(o.res.Trace, "barrier shuffle")
		switch o.name {
		case "theta":
			sameRows(t, "concurrent theta", o.res.Rows, thetaBase.Rows)
			if shuffleBarriers != 0 {
				t.Errorf("smart-theta query crossed %d shuffle barriers, want 0 (excluded in this mode)", shuffleBarriers)
			}
			if o.res.Faults.BarrierKills != 0 {
				t.Errorf("shuffle-barrier kill fired %d times for a smart-theta query — it never crosses that barrier", o.res.Faults.BarrierKills)
			}
		case "hash":
			sameRows(t, "concurrent hash", o.res.Rows, hashBase.Rows)
			if shuffleBarriers == 0 {
				t.Error("checkpointed hash query crossed no shuffle barrier")
			}
			if o.res.Faults.BarrierKills == 0 {
				t.Error("hash query: armed shuffle-barrier kill never fired")
			}
			if o.res.Faults.PartitionsRecovered == 0 {
				t.Error("hash query: no partitions recovered from checkpoint")
			}
		}
	}
}

// TestSmartThetaBarrierLossFallsBackRetryable pins the recovery
// semantics the exclusion rests on: a smart-theta query that loses a
// node at its (plan) barrier without a checkpoint store surfaces a
// retryable BarrierLossError internally and converges by
// abort-and-rerun — same answer, Retries > 0 — even while checkpointed
// hash queries share the scheduler.
func TestSmartThetaBarrierLossFallsBackRetryable(t *testing.T) {
	// The classification itself: a barrier loss is always retryable.
	if loss := (&cluster.BarrierLossError{Barrier: cluster.BarrierPlan}); !cluster.IsRetryable(loss) {
		t.Fatal("BarrierLossError must classify retryable")
	}

	db := newTestDB(t, WithConcurrencyLimit(4))
	db.SetSmartTheta(true)
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
