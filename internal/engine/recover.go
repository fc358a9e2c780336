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
	"errors"
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// planKey names a step's durable plan checkpoint; the step ordinal
// namespaces every checkpoint key of a multi-join query.
func planKey(step int) string { return fmt.Sprintf("s%d-plan", step) }

// shuffleKey names one partition's post-shuffle input checkpoint for
// one side.
func shuffleKey(step int, side string, part int) string {
	return fmt.Sprintf("s%d-shuffle-%s-p%d", step, side, part)
}

// runFUDJRecoverable drives one FUDJ join step through barrier-loss
// recovery. With a checkpoint store attached, losses are healed inside
// runFUDJ and never reach here; without one, a BarrierLossError aborts
// the step and the whole step re-runs, up to the cluster's task
// attempt budget.
func (q *queryRun) runFUDJRecoverable(jsp *trace.Span, step *joinStep, sink func() rowSink,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	attempts := q.clus.RetryPolicy().MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var fails []error
	for attempt := 0; attempt < attempts; attempt++ {
		out, err := q.runFUDJ(jsp, step, sink, left, leftSchema, right, rightSchema)
		var loss *cluster.BarrierLossError
		if err != nil && errors.As(err, &loss) && q.ctx.Err() == nil {
			// Abort-and-rerun: no checkpoint store, so the barrier loss
			// replays the whole step — SUMMARIZE included — which is
			// exactly the waste checkpointed execution avoids.
			q.clus.Metrics().Counter(cluster.MetricRetries).Add(1)
			fails = append(fails, err)
			continue
		}
		return out, err
	}
	return nil, fmt.Errorf("engine: fudj %s step %d gave up after %d attempts: %w",
		step.fudj.def.Name, step.ord, attempts, errors.Join(fails...))
}

// planBarrier crosses the plan barrier: the broadcast plan blob is
// checkpointed, injected node deaths fire, and lost nodes recover by
// re-reading the durable plan (healing a damaged checkpoint with a
// re-broadcast of the coordinator's copy). Returns the plan bytes
// every node should decode.
func (q *queryRun) planBarrier(step int, planBuf []byte) ([]byte, error) {
	rm := q.rm
	if err := rm.CheckpointBlob(planKey(step), planBuf); err != nil {
		return nil, err
	}
	lost := rm.CrossBarrier(cluster.BarrierPlan)
	if len(lost) == 0 {
		return planBuf, nil
	}
	if !rm.Enabled() {
		return nil, rm.LossError(cluster.BarrierPlan, lost)
	}
	return rm.RecoverBlob(planKey(step), lost, func() ([]byte, error) {
		// Corrupt/torn plan checkpoint: the coordinator still holds the
		// plan, so healing is a re-broadcast (charged as such).
		q.clus.Broadcast(planBuf)
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
func (q *queryRun) shuffleBarrier(step int, sides ...shuffleSide) error {
	rm := q.rm
	if rm.Enabled() {
		for _, s := range sides {
			for part := range s.data {
				if err := rm.CheckpointRecords(shuffleKey(step, s.name, part), s.data[part]); err != nil {
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
			recs, err := rm.RecoverRecords(shuffleKey(step, s.name, part), part, func() ([]types.Record, error) {
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
