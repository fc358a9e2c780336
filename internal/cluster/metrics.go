package cluster

import (
	"sync"
	"time"
)

// MetricKind distinguishes the three metric flavours the registry
// stores.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing total.
	KindCounter MetricKind = iota
	// KindGauge is a current value with a recorded high-water mark.
	KindGauge
	// KindHistogram records observation count, sum, and max.
	KindHistogram
)

// Core metric names pre-registered by every cluster. The engine layers
// its own "join.*" metrics into the same registry at query end, so one
// Values() call sees the whole execution.
const (
	MetricShuffleBytes   = "shuffle.bytes"
	MetricShuffleRecords = "shuffle.records"
	MetricBroadcastBytes = "broadcast.bytes"
	MetricTasks          = "tasks"
	MetricRetries        = "retries"
	MetricRecovered      = "recovered"
	MetricSpeculative    = "speculative"
	MetricCorruptHealed  = "corruptions.healed"
	MetricMemReserved    = "mem.reserved"
	MetricMemInput       = "mem.input"
	MetricSpillBytes     = "spill.bytes"
	MetricSpillRuns      = "spill.runs"
	MetricBucketsSplit   = "buckets.split"
	MetricBackpressure   = "backpressure"
	MetricTaskBusy       = "task.busy"

	// Batched-execution counters (PR 9). Batches/BatchRows count the
	// columnar frames serialized across node boundaries and the rows
	// they carried.
	MetricBatches   = "batch.count"
	MetricBatchRows = "batch.rows"

	// Checkpoint/recovery counters (PR 5). CheckpointRecovered counts
	// partitions restored from a durable checkpoint instead of
	// recomputed; CheckpointDiscarded counts checkpoints that failed
	// their integrity check on reopen and were healed by recompute.
	MetricCheckpointBytes     = "checkpoint.bytes"
	MetricCheckpointRecovered = "checkpoint.partitions.recovered"
	MetricCheckpointDiscarded = "checkpoint.discarded"
	MetricBarrierKills        = "barrier.kills"
)

// Metrics is the cluster's metric registry: named counters, gauges,
// and histograms, plus the per-partition busy-time vector, all guarded
// by one mutex. Every read and write of registry state holds mu —
// the discipline Snapshot establishes and `go test -race` checks
// (TestMetricsReadableMidQuery) — so a mid-query observer can never mix
// epochs across metrics.
//
// Storage is columnar (parallel slices indexed by registration id) so
// handle operations are a lock, an indexed add, and an unlock — no map
// lookup on the hot path.
type Metrics struct {
	mu    sync.Mutex
	index map[string]int
	names []string
	kinds []MetricKind
	vals  []int64 // counter total / gauge current
	peaks []int64 // gauge high-water mark
	hcnt  []int64 // histogram observations
	hsum  []int64 // histogram sum
	hmax  []int64 // histogram max
	busy  []time.Duration
}

func newMetrics(parts int) *Metrics {
	m := &Metrics{index: make(map[string]int)}
	m.mu.Lock()
	for _, name := range []string{
		MetricShuffleBytes, MetricShuffleRecords, MetricBroadcastBytes,
		MetricTasks, MetricRetries, MetricRecovered, MetricSpeculative,
		MetricCorruptHealed, MetricSpillBytes, MetricSpillRuns,
		MetricBucketsSplit, MetricBackpressure,
		MetricCheckpointBytes, MetricCheckpointRecovered,
		MetricCheckpointDiscarded, MetricBarrierKills,
		MetricBatches, MetricBatchRows,
	} {
		m.slot(name, KindCounter)
	}
	m.slot(MetricMemReserved, KindGauge)
	m.slot(MetricMemInput, KindGauge)
	m.slot(MetricTaskBusy, KindHistogram)
	m.busy = make([]time.Duration, parts)
	m.mu.Unlock()
	return m
}

// slot returns the storage index for name, registering it under kind
// when absent. Callers must hold mu.
func (m *Metrics) slot(name string, kind MetricKind) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	if m.index == nil {
		m.index = make(map[string]int)
	}
	i := len(m.names)
	m.names = append(m.names, name)
	m.kinds = append(m.kinds, kind)
	m.vals = append(m.vals, 0)
	m.peaks = append(m.peaks, 0)
	m.hcnt = append(m.hcnt, 0)
	m.hsum = append(m.hsum, 0)
	m.hmax = append(m.hmax, 0)
	m.index[name] = i
	return i
}

// Counter is a handle to one registered counter.
type Counter struct {
	m  *Metrics
	id int
}

// Gauge is a handle to one registered gauge.
type Gauge struct {
	m  *Metrics
	id int
}

// Histogram is a handle to one registered histogram.
type Histogram struct {
	m  *Metrics
	id int
}

// Counter returns a handle to the named counter, registering it on
// first use.
func (m *Metrics) Counter(name string) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counter{m: m, id: m.slot(name, KindCounter)}
}

// Gauge returns a handle to the named gauge, registering it on first
// use.
func (m *Metrics) Gauge(name string) Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Gauge{m: m, id: m.slot(name, KindGauge)}
}

// Histogram returns a handle to the named histogram, registering it on
// first use.
func (m *Metrics) Histogram(name string) Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Histogram{m: m, id: m.slot(name, KindHistogram)}
}

// Add increments the counter.
func (c Counter) Add(n int64) {
	c.m.mu.Lock()
	c.m.vals[c.id] += n
	c.m.mu.Unlock()
}

// Add moves the gauge by n (negative to release) and records the
// high-water mark.
func (g Gauge) Add(n int64) {
	g.m.mu.Lock()
	g.m.vals[g.id] += n
	if g.m.vals[g.id] > g.m.peaks[g.id] {
		g.m.peaks[g.id] = g.m.vals[g.id]
	}
	g.m.mu.Unlock()
}

// Observe records one histogram observation.
func (h Histogram) Observe(v int64) {
	h.m.mu.Lock()
	h.m.hcnt[h.id]++
	h.m.hsum[h.id] += v
	if v > h.m.hmax[h.id] {
		h.m.hmax[h.id] = v
	}
	h.m.mu.Unlock()
}

// Values returns one consistent name → value view of the whole
// registry, taken under a single lock acquisition. Gauges contribute
// their current value plus a ".peak" entry; histograms contribute
// ".count", ".sum", and ".max" entries.
func (m *Metrics) Values() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.names)*2)
	for i, name := range m.names {
		switch m.kinds[i] {
		case KindCounter:
			out[name] = m.vals[i]
		case KindGauge:
			out[name] = m.vals[i]
			out[name+".peak"] = m.peaks[i]
		case KindHistogram:
			out[name+".count"] = m.hcnt[i]
			out[name+".sum"] = m.hsum[i]
			out[name+".max"] = m.hmax[i]
		}
	}
	return out
}

// Snapshot is a consistent copy of the core execution counters, taken
// under one lock acquisition so a mid-query read cannot mix epochs
// across counters (e.g. observe a retry without its task).
type Snapshot struct {
	BytesShuffled   int64
	RecordsShuffled int64
	BytesBroadcast  int64
	MaxBusy         time.Duration
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

	CheckpointBytes     int64
	CheckpointRecovered int64
	CheckpointDiscarded int64
	BarrierKills        int64

	Batches   int64
	BatchRows int64
}

// Snapshot reads the core counters atomically with respect to writers:
// one lock pass, so every field belongs to the same instant.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var maxBusy, totalBusy time.Duration
	for _, b := range m.busy {
		totalBusy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	val := func(name string) int64 {
		if i, ok := m.index[name]; ok {
			return m.vals[i]
		}
		return 0
	}
	peak := func(name string) int64 {
		if i, ok := m.index[name]; ok {
			return m.peaks[i]
		}
		return 0
	}
	return Snapshot{
		BytesShuffled:   val(MetricShuffleBytes),
		RecordsShuffled: val(MetricShuffleRecords),
		BytesBroadcast:  val(MetricBroadcastBytes),
		MaxBusy:         maxBusy,
		TotalBusy:       totalBusy,
		Tasks:           val(MetricTasks),
		Retries:         val(MetricRetries),
		Recovered:       val(MetricRecovered),
		Speculative:     val(MetricSpeculative),
		CorruptHealed:   val(MetricCorruptHealed),
		PeakMemory:      peak(MetricMemReserved),
		PeakInput:       peak(MetricMemInput),
		BytesSpilled:    val(MetricSpillBytes),
		SpillRuns:       val(MetricSpillRuns),
		BucketsSplit:    val(MetricBucketsSplit),
		Backpressure:    val(MetricBackpressure),

		CheckpointBytes:     val(MetricCheckpointBytes),
		CheckpointRecovered: val(MetricCheckpointRecovered),
		CheckpointDiscarded: val(MetricCheckpointDiscarded),
		BarrierKills:        val(MetricBarrierKills),

		Batches:   val(MetricBatches),
		BatchRows: val(MetricBatchRows),
	}
}

// counterValue reads one registered metric's current value.
func (m *Metrics) counterValue(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.index[name]; ok {
		return m.vals[i]
	}
	return 0
}

// addBusy accumulates one task's busy time into its partition's slot
// and the task-busy histogram.
func (m *Metrics) addBusy(part int, d time.Duration) {
	m.mu.Lock()
	for part >= len(m.busy) {
		m.busy = append(m.busy, 0)
	}
	m.busy[part] += d
	m.vals[m.slot(MetricTasks, KindCounter)]++
	i := m.slot(MetricTaskBusy, KindHistogram)
	m.hcnt[i]++
	m.hsum[i] += int64(d)
	if int64(d) > m.hmax[i] {
		m.hmax[i] = int64(d)
	}
	m.mu.Unlock()
}

func (m *Metrics) addTo(name string, n int64) {
	m.mu.Lock()
	m.vals[m.slot(name, KindCounter)] += n
	m.mu.Unlock()
}

func (m *Metrics) addShuffle(bytes, recs int64) {
	m.mu.Lock()
	m.vals[m.slot(MetricShuffleBytes, KindCounter)] += bytes
	m.vals[m.slot(MetricShuffleRecords, KindCounter)] += recs
	m.mu.Unlock()
}

// addBatch records one serialized columnar frame and the rows it
// carried.
func (m *Metrics) addBatch(rows int64) {
	m.mu.Lock()
	m.vals[m.slot(MetricBatches, KindCounter)]++
	m.vals[m.slot(MetricBatchRows, KindCounter)] += rows
	m.mu.Unlock()
}

func (m *Metrics) addBroadcast(bytes int64) { m.addTo(MetricBroadcastBytes, bytes) }
func (m *Metrics) addRetry()                { m.addTo(MetricRetries, 1) }
func (m *Metrics) addRecovered()            { m.addTo(MetricRecovered, 1) }
func (m *Metrics) addSpeculative()          { m.addTo(MetricSpeculative, 1) }
func (m *Metrics) addCorruptHealed()        { m.addTo(MetricCorruptHealed, 1) }
func (m *Metrics) addBackpressure()         { m.addTo(MetricBackpressure, 1) }

func (m *Metrics) addCheckpointBytes(n int64)     { m.addTo(MetricCheckpointBytes, n) }
func (m *Metrics) addCheckpointRecovered(n int64) { m.addTo(MetricCheckpointRecovered, n) }
func (m *Metrics) addCheckpointDiscarded()        { m.addTo(MetricCheckpointDiscarded, 1) }
func (m *Metrics) addBarrierKills(n int64)        { m.addTo(MetricBarrierKills, n) }

// ReserveMemory charges bytes against the budget-tracked gauge and
// records the new high-water mark. The engine calls this for COMBINE
// build structures; deliver charges its in-flight frames internally.
func (m *Metrics) ReserveMemory(bytes int64) { m.reserveMemory(bytes) }

// ReleaseMemory returns bytes to the budget-tracked gauge.
func (m *Metrics) ReleaseMemory(bytes int64) { m.releaseMemory(bytes) }

// AddSpill records one or more spill runs written to disk.
func (m *Metrics) AddSpill(bytes, runs int64) {
	m.mu.Lock()
	m.vals[m.slot(MetricSpillBytes, KindCounter)] += bytes
	m.vals[m.slot(MetricSpillRuns, KindCounter)] += runs
	m.mu.Unlock()
}

// AddBucketSplit records one skew-split spilled bucket.
func (m *Metrics) AddBucketSplit() { m.addTo(MetricBucketsSplit, 1) }

func (m *Metrics) reserveMemory(bytes int64) {
	m.mu.Lock()
	i := m.slot(MetricMemReserved, KindGauge)
	m.vals[i] += bytes
	if m.vals[i] > m.peaks[i] {
		m.peaks[i] = m.vals[i]
	}
	m.mu.Unlock()
}

func (m *Metrics) releaseMemory(bytes int64) {
	m.mu.Lock()
	m.vals[m.slot(MetricMemReserved, KindGauge)] -= bytes
	m.mu.Unlock()
}

func (m *Metrics) notePartitionInput(bytes int64) {
	m.mu.Lock()
	i := m.slot(MetricMemInput, KindGauge)
	if bytes > m.vals[i] {
		m.vals[i] = bytes
	}
	if bytes > m.peaks[i] {
		m.peaks[i] = bytes
	}
	m.mu.Unlock()
}
