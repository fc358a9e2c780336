// Recovery manager: durable phase barriers and partial recovery. The
// FUDJ pipeline has two natural barriers — after SUMMARIZE (the
// partitioning plan is broadcast) and after PARTITION (every record
// sits in its destination partition's bucket input) — and a node lost
// *at* a barrier only needs the work downstream of it replayed. The
// manager classifies each loss by the barrier it occurred at, reloads
// checkpointed state for the lost partitions when a checkpoint store
// is attached, and reports a retryable BarrierLossError otherwise so
// the caller can fall back to abort-and-rerun of the whole join step.
//
// Corruption healing: a checkpoint that fails its integrity check on
// reopen (torn write, bit flip) is discarded and the partition's state
// is recomputed from the surviving upstream inputs — recovery may cost
// more, but it never produces different results.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"fudj/internal/storage"
	"fudj/internal/types"
)

// Barrier names a durable phase barrier of the FUDJ pipeline.
type Barrier int

const (
	// BarrierPlan is crossed after SUMMARIZE: the partitioning plan has
	// been broadcast, so a node lost here re-reads the durable plan
	// instead of re-running SUMMARIZE.
	BarrierPlan Barrier = iota + 1
	// BarrierShuffle is crossed after PARTITION: every partition's
	// post-shuffle bucket inputs are durable, so a node lost here
	// reloads its partitions' inputs and re-runs only their COMBINE.
	BarrierShuffle
)

// String implements fmt.Stringer.
func (b Barrier) String() string {
	switch b {
	case BarrierPlan:
		return "plan"
	case BarrierShuffle:
		return "shuffle"
	}
	return fmt.Sprintf("barrier(%d)", int(b))
}

// Class reports the failure class a loss at this barrier falls into:
// pre-shuffle losses replay SUMMARIZE+PARTITION work, post-shuffle
// losses replay only COMBINE work.
func (b Barrier) Class() string {
	if b >= BarrierShuffle {
		return "post-shuffle"
	}
	return "pre-shuffle"
}

// BarrierLossError reports nodes lost at a phase barrier when no
// checkpoint store is attached to recover them in place. It is
// retryable: the caller re-runs the join step from the top
// (abort-and-rerun), which is exactly the waste checkpointing avoids.
type BarrierLossError struct {
	Barrier Barrier
	Nodes   []int
	Parts   []int
}

// Error implements the error interface.
func (e *BarrierLossError) Error() string {
	return fmt.Sprintf("cluster: %d node(s) %v lost at %s barrier (%s), partitions %v",
		len(e.Nodes), e.Nodes, e.Barrier, e.Barrier.Class(), e.Parts)
}

// Retryable marks the loss as transient: rerunning the step succeeds.
func (e *BarrierLossError) Retryable() bool { return true }

// RecoveryManager drives barrier-scoped recovery for one query; every
// query has one. A nil checkpoint store disables durability: barriers
// still fire injected kills, but losses surface as BarrierLossError
// instead of being healed in place.
type RecoveryManager struct {
	c     *Cluster
	store *storage.CheckpointStore
}

// NewRecoveryManager attaches a recovery manager to the cluster.
// store may be nil (checkpointing disabled).
func (c *Cluster) NewRecoveryManager(store *storage.CheckpointStore) *RecoveryManager {
	return &RecoveryManager{c: c, store: store}
}

// A Piece is one unit of state at a barrier: the records partition Part
// holds, or with Part -1 the records every partition holds a copy of
// (the broadcast plan).
type Piece struct {
	Key  string // checkpoint key, unique within the query
	Part int
	// Recs is the holder's slot; a restore writes the records back here.
	Recs *[]types.Record
	// Recompute rebuilds the records from surviving state when the
	// checkpoint fails its integrity check.
	Recompute func() []types.Record
}

// Cross carries execution across barrier b. With a checkpoint store
// attached it saves every piece (pieces is called only then), applies
// any injected damage, and fires the barrier's kills; each piece held
// by a lost partition is then restored in place, reloaded from its
// checkpoint when that reopens cleanly and recomputed otherwise.
// Without a store a loss is a retryable *BarrierLossError.
func (rm *RecoveryManager) Cross(b Barrier, pieces func() []Piece) error {
	var ps []Piece
	if rm.store != nil {
		ps = pieces()
		for _, p := range ps {
			n, err := rm.store.SaveRecords(p.Key, *p.Recs)
			if err != nil {
				return err
			}
			rm.c.metrics.update(func(s *Snapshot) { s.CheckpointBytes += n })
			if err := rm.applyDamage(p.Key); err != nil {
				return err
			}
		}
	}
	nodes, lost := rm.kill(b)
	if len(nodes) == 0 {
		return nil
	}
	if rm.store == nil {
		return &BarrierLossError{Barrier: b, Nodes: nodes, Parts: lost}
	}
	for _, p := range ps {
		held := len(lost) // Part -1: every lost partition held a copy
		if p.Part >= 0 {
			if !slices.Contains(lost, p.Part) {
				continue
			}
			held = 1
		}
		if err := rm.restore(p, held); err != nil {
			return err
		}
	}
	return nil
}

// applyDamage asks the fault injector whether the just-published
// checkpoint suffers a torn write (tail truncated, terminator lost) or
// a bit flip, and damages the file accordingly. The damage is real —
// the reopen path must detect it through the format's own checks.
func (rm *RecoveryManager) applyDamage(key string) error {
	fi := rm.c.faults
	if fi == nil {
		return nil
	}
	switch fi.checkpointDamage(key) {
	case damageTorn:
		path := rm.store.Path(key)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, info.Size()/2)
	case damageCorrupt:
		path := rm.store.Path(key)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		off := fi.damageOffset(key, info.Size(), 8)
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return err
		}
		b[0] ^= 0x10
		_, err = f.WriteAt(b[:], off)
		return err
	}
	return nil
}

// kill fires the injected node deaths at barrier b and returns the
// dead nodes and their partitions, both sorted ascending. A loss emits
// a "barrier <name>" span so recovery shows up in the query tree.
func (rm *RecoveryManager) kill(b Barrier) (nodes, lostParts []int) {
	fi := rm.c.faults
	if !fi.hasBarrierFaults() {
		return nil, nil
	}
	nodes = fi.killAtBarrier(rm.c.nextEpoch(), b, rm.c.cfg.Nodes)
	if len(nodes) == 0 {
		return nil, nil
	}
	for _, n := range nodes {
		for core := 0; core < rm.c.cfg.CoresPerNode; core++ {
			lostParts = append(lostParts, n*rm.c.cfg.CoresPerNode+core)
		}
	}
	rm.c.metrics.update(func(s *Snapshot) { s.BarrierKills += int64(len(nodes)) })
	sp := rm.c.span.Child("barrier " + b.String())
	sp.Add("nodes.lost", int64(len(nodes)))
	sp.Add("parts.lost", int64(len(lostParts)))
	sp.End()
	return nodes, lostParts
}

// restore writes a lost piece back into its slot, counting it as
// recovered once for each of the held lost partitions that had it. A
// reload is charged against the budget-tracked memory gauge so recovery
// registers in PeakMemory; a checkpoint that fails its integrity check
// is counted, removed, and replaced by Recompute. Each restore emits a
// "recover" span under the current phase span.
func (rm *RecoveryManager) restore(p Piece, held int) error {
	sp := rm.c.span.Child("recover")
	defer sp.End()
	if p.Part >= 0 {
		sp.Add("part", int64(p.Part))
	} else {
		sp.Add("parts", int64(held))
	}
	recs, err := rm.store.LoadRecords(p.Key)
	var ce *storage.CorruptError
	switch {
	case err == nil:
		rm.c.metrics.update(func(s *Snapshot) { s.CheckpointRecovered += int64(held) })
		sp.Add("from.checkpoint", 1)
		n := types.RecordsMemSize(recs)
		rm.c.metrics.ReserveMemory(n)
		rm.c.metrics.ReleaseMemory(n)
	case errors.As(err, &ce):
		rm.c.metrics.update(func(s *Snapshot) { s.CheckpointDiscarded++ })
		if err := rm.store.Remove(p.Key); err != nil {
			return err
		}
		sp.Add("from.recompute", 1)
		recs = p.Recompute()
	default:
		return err
	}
	*p.Recs = recs
	return nil
}

// Sweep removes the checkpoint directory; called at query teardown so
// no checkpoint files outlive their query.
func (rm *RecoveryManager) Sweep() error {
	if rm.store == nil {
		return nil
	}
	return rm.store.Sweep()
}
