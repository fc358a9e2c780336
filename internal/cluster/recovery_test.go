package cluster

import (
	"errors"
	"slices"
	"testing"

	"fudj/internal/storage"
	"fudj/internal/types"
)

func testStore(t *testing.T) *storage.CheckpointStore {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	s, err := storage.NewCheckpointStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Sweep() })
	return s
}

func recoveryRecords(n int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{types.NewInt64(int64(i)), types.NewString("payload")}
	}
	return recs
}

// lostParts crosses b on a store-less manager and returns the
// partitions a kill there lost, from its *BarrierLossError.
func lostParts(t *testing.T, rm *RecoveryManager, b Barrier) []int {
	t.Helper()
	err := rm.Cross(b, func() []Piece {
		t.Fatal("pieces built without a checkpoint store")
		return nil
	})
	if err == nil {
		return nil
	}
	var ble *BarrierLossError
	if !errors.As(err, &ble) {
		t.Fatalf("Cross(%s) = %v, want *BarrierLossError", b, err)
	}
	return ble.Parts
}

// piece wraps recs as the piece partition part holds, with a recompute
// that reports it ran.
func piece(key string, part int, recs []types.Record, recomputed *bool) Piece {
	slot := append([]types.Record(nil), recs...)
	return Piece{Key: key, Part: part, Recs: &slot, Recompute: func() []types.Record {
		*recomputed = true
		return recs
	}}
}

func TestKillAtBarrierTargetedFiresOnce(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{
		BarrierKills: []BarrierKill{{Barrier: BarrierShuffle, Node: 1}},
	}))
	rm := c.NewRecoveryManager(nil)

	if lost := lostParts(t, rm, BarrierPlan); lost != nil {
		t.Errorf("plan barrier lost %v, want none (kill targets shuffle)", lost)
	}
	lost := lostParts(t, rm, BarrierShuffle)
	want := []int{2, 3} // node 1 × 2 cores
	if !slices.Equal(lost, want) {
		t.Errorf("shuffle barrier lost %v, want %v", lost, want)
	}
	if again := lostParts(t, rm, BarrierShuffle); again != nil {
		t.Errorf("second crossing lost %v, want none (fire-once)", again)
	}
	if got := c.Metrics().Snapshot().BarrierKills; got != 1 {
		t.Errorf("BarrierKillCount = %d, want 1", got)
	}
}

func TestKillAtBarrierProbabilisticDeterminism(t *testing.T) {
	run := func() [][]int {
		c := New(Config{Nodes: 4, CoresPerNode: 2})
		c.SetFaults(NewFaultInjector(FaultConfig{Seed: 7, BarrierKillProb: 0.5}))
		rm := c.NewRecoveryManager(nil)
		var out [][]int
		for i := 0; i < 6; i++ {
			out = append(out, lostParts(t, rm, BarrierShuffle))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("crossing %d: %v vs %v — kills not deterministic", i, a[i], b[i])
		}
	}
}

func TestRecoverRecordsFromCheckpoint(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{
		BarrierKills: []BarrierKill{{Barrier: BarrierShuffle, Node: 0}},
	}))
	rm := c.NewRecoveryManager(testStore(t))
	recs := recoveryRecords(50)
	recomputed := false
	pieces := []Piece{
		piece("s0-plan", -1, recoveryRecords(1), &recomputed), // every partition's copy
		piece("s0-left-p1", 1, recs, &recomputed),
		piece("s0-left-p3", 3, recs, &recomputed), // node 1 survives
	}
	survivor := pieces[2].Recs
	before := &(*survivor)[0]
	if err := rm.Cross(BarrierShuffle, func() []Piece { return pieces }); err != nil {
		t.Fatal(err)
	}
	if recomputed {
		t.Fatal("recompute called despite a healthy checkpoint")
	}
	if got := *pieces[1].Recs; len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	if &(*survivor)[0] != before {
		t.Error("a surviving partition's piece was restored")
	}
	m := c.Metrics().Snapshot()
	if m.CheckpointRecovered != 3 {
		t.Errorf("CheckpointRecovered = %d, want 3 (the plan once per lost partition, plus p1)", m.CheckpointRecovered)
	}
	if m.CheckpointBytes <= 0 {
		t.Errorf("CheckpointBytes = %d, want > 0", m.CheckpointBytes)
	}
	if m.PeakMemory <= 0 {
		t.Errorf("PeakMemory = %d, want > 0 (reload must register)", m.PeakMemory)
	}
}

func TestRecoverRecordsHealsTornWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"torn", FaultConfig{Seed: 3, TornWriteProb: 1}},
		{"bitflip", FaultConfig{Seed: 3, CheckpointCorruptProb: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Nodes: 2, CoresPerNode: 2})
			tc.cfg.BarrierKills = []BarrierKill{{Barrier: BarrierShuffle, Node: 0}}
			c.SetFaults(NewFaultInjector(tc.cfg))
			rm := c.NewRecoveryManager(testStore(t))
			recs := recoveryRecords(50)
			recomputed := false
			p := piece("s0-left-p0", 0, recs, &recomputed)
			if err := rm.Cross(BarrierShuffle, func() []Piece { return []Piece{p} }); err != nil {
				t.Fatal(err)
			}
			if !recomputed {
				t.Error("damaged checkpoint was not healed by recompute")
			}
			if got := *p.Recs; len(got) != len(recs) {
				t.Errorf("recovered %d records, want %d", len(got), len(recs))
			}
			m := c.Metrics().Snapshot()
			if m.CheckpointDiscarded != 1 {
				t.Errorf("CheckpointDiscarded = %d, want 1", m.CheckpointDiscarded)
			}
			if m.CheckpointRecovered != 0 {
				t.Errorf("CheckpointRecovered = %d, want 0", m.CheckpointRecovered)
			}
		})
	}
}

func TestBarrierLossErrorRetryable(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{
		BarrierKills: []BarrierKill{{Barrier: BarrierShuffle, Node: 1}},
	}))
	rm := c.NewRecoveryManager(nil)
	err := rm.Cross(BarrierShuffle, nil)
	if !IsRetryable(err) {
		t.Error("BarrierLossError must be retryable")
	}
	ble, ok := err.(*BarrierLossError)
	if !ok {
		t.Fatalf("Cross returned %T", err)
	}
	if len(ble.Nodes) != 1 || ble.Nodes[0] != 1 {
		t.Errorf("Nodes = %v, want [1]", ble.Nodes)
	}
	if !slices.Equal(ble.Parts, []int{2, 3}) {
		t.Errorf("Parts = %v, want [2 3]", ble.Parts)
	}
	if ble.Barrier.Class() != "post-shuffle" {
		t.Errorf("Class = %q, want post-shuffle", ble.Barrier.Class())
	}
	if BarrierPlan.Class() != "pre-shuffle" {
		t.Errorf("plan Class = %q, want pre-shuffle", BarrierPlan.Class())
	}
}
