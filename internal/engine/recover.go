// Checkpointed FUDJ execution: durable phase barriers and partial
// recovery. runFUDJ's pipeline crosses two barriers — after SUMMARIZE
// (the partitioning plan is broadcast) and after PARTITION (every
// record sits in its destination partition's post-shuffle input). With
// checkpointing enabled (WithCheckpoints) the state at each barrier is
// made durable, so a node killed at a barrier replays only the work
// downstream of it: a plan-barrier loss re-reads the durable plan, a
// shuffle-barrier loss reloads the lost partitions' bucket inputs and
// re-runs only their COMBINE. Without checkpointing the same losses
// surface as retryable BarrierLossErrors and runFUDJRecoverable falls
// back to abort-and-rerun of the whole join step — the baseline the
// chaos suites contrast against.
package engine

import (
	"context"
	"errors"
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// stepRecovery carries one join step's barrier state: the shared
// recovery manager plus the step ordinal namespacing its checkpoint
// keys. A nil *stepRecovery disables all barrier logic (the pre-
// checkpoint code paths run unchanged).
type stepRecovery struct {
	rm   *cluster.RecoveryManager
	step int
}

// markDone records per-partition phase completion on the recovery
// manager; safe on a nil receiver and from concurrent partition tasks.
func (r *stepRecovery) markDone(phase string, part int) {
	if r != nil {
		r.rm.MarkDone(phase, part)
	}
}

// planKey names the step's durable plan checkpoint.
func (r *stepRecovery) planKey() string { return fmt.Sprintf("s%d-plan", r.step) }

// shuffleKey names one partition's post-shuffle input checkpoint for
// one side.
func (r *stepRecovery) shuffleKey(side string, part int) string {
	return fmt.Sprintf("s%d-shuffle-%s-p%d", r.step, side, part)
}

// runFUDJRecoverable drives one FUDJ join step through barrier-loss
// recovery. With a checkpoint store attached, losses are healed inside
// runFUDJ and never reach here; without one, a BarrierLossError aborts
// the step and the whole step re-runs, up to the cluster's task
// attempt budget.
func (db *Database) runFUDJRecoverable(ctx context.Context, clus *cluster.Cluster, counters *statsCounters, mem *memState, smartTheta bool, rm *cluster.RecoveryManager, ord int, jsp *trace.Span, step *joinStep, sink func() rowSink,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	if rm == nil {
		return db.runFUDJ(ctx, clus, counters, mem, smartTheta, nil, jsp, step, sink, left, leftSchema, right, rightSchema)
	}
	attempts := clus.RetryPolicy().MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var fails []error
	for attempt := 0; attempt < attempts; attempt++ {
		rec := &stepRecovery{rm: rm, step: ord}
		out, err := db.runFUDJ(ctx, clus, counters, mem, smartTheta, rec, jsp, step, sink, left, leftSchema, right, rightSchema)
		var loss *cluster.BarrierLossError
		if err != nil && errors.As(err, &loss) && ctx.Err() == nil {
			// Abort-and-rerun: no checkpoint store, so the barrier loss
			// replays the whole step — SUMMARIZE included — which is
			// exactly the waste checkpointed execution avoids.
			clus.Metrics().Counter(cluster.MetricRetries).Add(1)
			fails = append(fails, err)
			continue
		}
		return out, err
	}
	return nil, fmt.Errorf("engine: fudj %s step %d gave up after %d attempts: %w",
		step.fudj.def.Name, ord, attempts, errors.Join(fails...))
}

// planBarrier crosses the plan barrier: the broadcast plan blob is
// checkpointed, injected node deaths fire, and lost nodes recover by
// re-reading the durable plan (healing a damaged checkpoint with a
// re-broadcast of the coordinator's copy). Returns the plan bytes
// every node should decode.
func planBarrier(clus *cluster.Cluster, rec *stepRecovery, planBuf []byte) ([]byte, error) {
	if rec == nil {
		return planBuf, nil
	}
	rm := rec.rm
	if err := rm.CheckpointBlob(rec.planKey(), planBuf); err != nil {
		return nil, err
	}
	lost := rm.CrossBarrier(cluster.BarrierPlan)
	if len(lost) == 0 {
		return planBuf, nil
	}
	if !rm.Enabled() {
		return nil, rm.LossError(cluster.BarrierPlan, lost)
	}
	return rm.RecoverBlob(rec.planKey(), lost, func() ([]byte, error) {
		// Corrupt/torn plan checkpoint: the coordinator still holds the
		// plan, so healing is a re-broadcast (charged as such).
		clus.Broadcast(planBuf)
		return planBuf, nil
	})
}

// shuffleSide is one input side at the shuffle barrier: its
// post-shuffle partitions (mutated in place on recovery), and the
// surviving pre-shuffle data with the route that exchanged it, from
// which cluster.Received rebuilds a single lost partition's input in
// exactly the order the shuffle delivered it.
type shuffleSide struct {
	name  string
	data  cluster.Data
	pre   cluster.Data
	route cluster.Route
}

// shuffleBarrier crosses the shuffle barrier: every partition's
// post-shuffle input (both sides) is checkpointed, injected node
// deaths fire, and each lost partition is restored from its checkpoint
// — or recomputed when the checkpoint is damaged — so only the lost
// partitions' COMBINE re-runs.
func shuffleBarrier(rec *stepRecovery, sides ...shuffleSide) error {
	if rec == nil {
		return nil
	}
	rm := rec.rm
	if rm.Enabled() {
		for _, s := range sides {
			for part := range s.data {
				if err := rm.CheckpointRecords(rec.shuffleKey(s.name, part), s.data[part]); err != nil {
					return err
				}
			}
		}
	}
	lost := rm.CrossBarrier(cluster.BarrierShuffle)
	if len(lost) == 0 {
		return nil
	}
	if !rm.Enabled() {
		return rm.LossError(cluster.BarrierShuffle, lost)
	}
	for _, part := range lost {
		for _, s := range sides {
			s.data[part] = nil // wiped with the node
			recs, err := rm.RecoverRecords(rec.shuffleKey(s.name, part), part, func() ([]types.Record, error) {
				return cluster.Received(s.pre, s.route, part), nil
			})
			if err != nil {
				return err
			}
			s.data[part] = recs
		}
	}
	return nil
}
