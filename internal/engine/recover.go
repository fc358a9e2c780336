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
			q.clus.Metrics().AddRetry()
			fails = append(fails, err)
			continue
		}
		return out, err
	}
	return nil, fmt.Errorf("engine: fudj %s step %d gave up after %d attempts: %w",
		step.fudj.def.Name, step.ord, attempts, errors.Join(fails...))
}

// planBarrier crosses the plan barrier. The plan is one piece every
// partition holds: a one-record checkpoint with one string column
// holding planBuf. A lost node re-reads it, and a damaged checkpoint
// heals by re-broadcasting the coordinator's copy (charged as such).
// Returns the plan bytes every node should decode.
func (q *queryRun) planBarrier(step int, planBuf []byte) ([]byte, error) {
	var plan *[]types.Record
	err := q.rm.Cross(cluster.BarrierPlan, func() []cluster.Piece {
		rec := types.Record{types.NewString(string(planBuf))}
		plan = &[]types.Record{rec}
		return []cluster.Piece{{Key: planKey(step), Part: -1, Recs: plan, Recompute: func() []types.Record {
			q.clus.Broadcast(int64(len(planBuf)))
			return []types.Record{rec}
		}}}
	})
	if err != nil {
		return nil, err
	}
	if plan == nil { // no checkpoint store: nothing was restored
		return planBuf, nil
	}
	return []byte((*plan)[0][0].Str()), nil
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

// shuffleBarrier crosses the shuffle barrier: each partition's
// post-shuffle input on each side is one piece, so a lost partition's
// inputs are reloaded (or rebuilt from the pre-shuffle data when the
// checkpoint is damaged) and only that partition's COMBINE re-runs.
func (q *queryRun) shuffleBarrier(step int, sides ...shuffleSide) error {
	return q.rm.Cross(cluster.BarrierShuffle, func() []cluster.Piece {
		var pieces []cluster.Piece
		for _, s := range sides {
			for part := range s.data {
				pieces = append(pieces, cluster.Piece{Key: shuffleKey(step, s.name, part), Part: part, Recs: &s.data[part],
					Recompute: func() []types.Record { return cluster.Received(s.pre, s.route, part) }})
			}
		}
		return pieces
	})
}
