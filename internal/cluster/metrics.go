package cluster

import (
	"sync"
	"time"
)

// Metrics is one query's execution counters: the Snapshot fields plus
// the two values Values reports beside them, all guarded by one mutex.
// Every read and write holds mu — the discipline `go test -race` checks
// (TestMetricsReadableMidQuery) — so a mid-query observer can never mix
// epochs across counters. The zero value is ready to use.
type Metrics struct {
	mu       sync.Mutex
	s        Snapshot
	reserved int64           // bytes reserved now
	maxTask  time.Duration   // longest single task attempt
	busy     []time.Duration // per-partition busy time
}

func newMetrics(parts int) *Metrics {
	return &Metrics{busy: make([]time.Duration, parts)}
}

// Snapshot is a consistent copy of the execution counters, taken under
// one lock acquisition so a mid-query read cannot mix epochs across
// counters (e.g. observe a retry without its task).
type Snapshot struct {
	BytesShuffled   int64
	RecordsShuffled int64
	BytesBroadcast  int64
	MaxBusy         time.Duration // busiest partition's total
	TotalBusy       time.Duration
	Tasks           int64
	Retries         int64
	Recovered       int64
	Speculative     int64
	CorruptHealed   int64

	PeakMemory   int64
	PeakInput    int64
	BytesSpilled int64
	SpillRuns    int64
	BucketsSplit int64
	Backpressure int64

	// Checkpointed execution. CheckpointRecovered counts partitions
	// restored from a durable checkpoint instead of recomputed;
	// CheckpointDiscarded counts checkpoints that failed their
	// integrity check on reopen and were healed by recompute.
	CheckpointBytes     int64
	CheckpointRecovered int64
	CheckpointDiscarded int64
	BarrierKills        int64

	// Batches/BatchRows count the columnar frames serialized across
	// node boundaries and the rows they carried.
	Batches   int64
	BatchRows int64
}

// Snapshot returns a copy of the counters taken under one lock, so
// every field belongs to the same instant.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// Values returns the counters as one name → value map, taken under a
// single lock acquisition. The gauges contribute their current value
// plus a ".peak" entry, task busy time ".count", ".sum" and ".max"
// entries. The engine adds its join.* and sched.* entries at query
// end; the map is sized for them.
func (m *Metrics) Values() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.s
	out := make(map[string]int64, 48)
	out["shuffle.bytes"] = s.BytesShuffled
	out["shuffle.records"] = s.RecordsShuffled
	out["broadcast.bytes"] = s.BytesBroadcast
	out["tasks"] = s.Tasks
	out["retries"] = s.Retries
	out["recovered"] = s.Recovered
	out["speculative"] = s.Speculative
	out["corruptions.healed"] = s.CorruptHealed
	out["mem.reserved"] = m.reserved
	out["mem.reserved.peak"] = s.PeakMemory
	out["mem.input"] = s.PeakInput
	out["mem.input.peak"] = s.PeakInput
	out["spill.bytes"] = s.BytesSpilled
	out["spill.runs"] = s.SpillRuns
	out["buckets.split"] = s.BucketsSplit
	out["backpressure"] = s.Backpressure
	out["task.busy.count"] = s.Tasks
	out["task.busy.sum"] = int64(s.TotalBusy)
	out["task.busy.max"] = int64(m.maxTask)
	out["batch.count"] = s.Batches
	out["batch.rows"] = s.BatchRows
	out["checkpoint.bytes"] = s.CheckpointBytes
	out["checkpoint.partitions.recovered"] = s.CheckpointRecovered
	out["checkpoint.discarded"] = s.CheckpointDiscarded
	out["barrier.kills"] = s.BarrierKills
	return out
}

// update applies one mutation to the counters under the lock.
func (m *Metrics) update(f func(s *Snapshot)) {
	m.mu.Lock()
	f(&m.s)
	m.mu.Unlock()
}

// addBusy accumulates one task attempt's busy time into its
// partition's total.
func (m *Metrics) addBusy(part int, d time.Duration) {
	m.mu.Lock()
	for part >= len(m.busy) {
		m.busy = append(m.busy, 0)
	}
	m.busy[part] += d
	m.s.MaxBusy = max(m.s.MaxBusy, m.busy[part])
	m.s.TotalBusy += d
	m.s.Tasks++
	m.maxTask = max(m.maxTask, d)
	m.mu.Unlock()
}

// AddRetry records one re-execution the engine drove itself.
func (m *Metrics) AddRetry() { m.update(func(s *Snapshot) { s.Retries++ }) }

// ReserveMemory charges bytes against the budget-tracked gauge and
// records the new high-water mark. The engine calls this for COMBINE
// build structures; deliver charges its in-flight frames internally.
func (m *Metrics) ReserveMemory(bytes int64) {
	m.mu.Lock()
	m.reserved += bytes
	m.s.PeakMemory = max(m.s.PeakMemory, m.reserved)
	m.mu.Unlock()
}

// ReleaseMemory returns bytes to the budget-tracked gauge.
func (m *Metrics) ReleaseMemory(bytes int64) {
	m.mu.Lock()
	m.reserved -= bytes
	m.mu.Unlock()
}

// AddSpill records one or more spill runs written to disk.
func (m *Metrics) AddSpill(bytes, runs int64) {
	m.update(func(s *Snapshot) { s.BytesSpilled += bytes; s.SpillRuns += runs })
}

// AddBucketSplit records one skew-split spilled bucket.
func (m *Metrics) AddBucketSplit() { m.update(func(s *Snapshot) { s.BucketsSplit++ }) }

// notePartitionInput records one partition's input footprint; the
// gauge keeps the largest.
func (m *Metrics) notePartitionInput(bytes int64) {
	m.update(func(s *Snapshot) { s.PeakInput = max(s.PeakInput, bytes) })
}
