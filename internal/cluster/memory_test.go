package cluster

import (
	"sync"
	"testing"
)

func TestFlattenPreallocates(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(10))
	flat := data.Flatten()
	if len(flat) != 10 || cap(flat) != 10 {
		t.Errorf("len/cap = %d/%d, want 10/10", len(flat), cap(flat))
	}
	if got := recordInts(flat); got[0] != 0 || got[9] != 9 {
		t.Errorf("Flatten lost records: %v", got)
	}
	var empty Data
	if empty.Flatten() != nil {
		t.Error("empty Flatten should be nil")
	}
}

func TestMetricsSnapshotConsistent(t *testing.T) {
	// Snapshot must read all counters under one lock pass: with writers
	// incrementing shuffle bytes and records together, every snapshot
	// must observe bytes >= records (each add writes bytes first via the
	// same lock), never a torn mix.
	m := &Metrics{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.update(func(s *Snapshot) { s.BytesShuffled += 2; s.RecordsShuffled++ })
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		s := m.Snapshot()
		if s.BytesShuffled != 2*s.RecordsShuffled {
			t.Fatalf("torn snapshot: bytes=%d records=%d", s.BytesShuffled, s.RecordsShuffled)
		}
	}
	close(stop)
	wg.Wait()
}

func TestMemoryGaugeRoundTrip(t *testing.T) {
	m := &Metrics{}
	m.ReserveMemory(100)
	m.ReserveMemory(50)
	m.ReleaseMemory(120)
	if got := m.Snapshot().PeakMemory; got != 150 {
		t.Errorf("PeakMemory = %d, want 150", got)
	}
	m.AddSpill(4096, 2)
	m.AddBucketSplit()
	s := m.Snapshot()
	if s.BytesSpilled != 4096 || s.SpillRuns != 2 || s.BucketsSplit != 1 {
		t.Errorf("spill counters = %+v", s)
	}
}

func TestPartitionBudget(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	if c.PartitionBudget() != 0 {
		t.Error("unbounded cluster should report 0 partition budget")
	}
	c.SetMemoryBudget(4000)
	if got := c.PartitionBudget(); got != 1000 {
		t.Errorf("PartitionBudget = %d, want 1000", got)
	}
	c.SetMemoryBudget(2) // below one byte per partition: clamps to 1
	if got := c.PartitionBudget(); got != 1 {
		t.Errorf("PartitionBudget = %d, want 1", got)
	}
}
