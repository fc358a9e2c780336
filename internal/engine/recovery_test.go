package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/trace"
)

func barrierKillConfig(b cluster.Barrier, node int) *cluster.FaultConfig {
	return &cluster.FaultConfig{
		Seed:         1,
		BarrierKills: []cluster.BarrierKill{{Barrier: b, Node: node}},
	}
}

// countSpans walks a trace counting spans with the given name.
func countSpans(root *trace.Span, name string) int {
	n := 0
	root.Walk(func(_ int, sp *trace.Span) {
		if sp.Name() == name {
			n++
		}
	})
	return n
}

// phaseTasks counts partition task executions under every span named
// phase; on SUMMARIZE it is the "did SUMMARIZE re-run" probe.
func phaseTasks(root *trace.Span, phase string) int {
	n := 0
	root.Walk(func(_ int, sp *trace.Span) {
		if sp.Name() != phase {
			return
		}
		for _, c := range sp.Children() {
			if c.Name() == "task" {
				n++
			}
		}
	})
	return n
}

// shuffled reads what a traced query's join exchanges moved: the
// records PARTITION pruned, the records the exchanges delivered to
// COMBINE (counted after the shuffle barrier, so after any recovery),
// and the records they shuffled across nodes.
func shuffled(t *testing.T, res *Result) [3]int64 {
	t.Helper()
	var n [3]int64
	res.Trace.Walk(func(_ int, sp *trace.Span) {
		switch sp.Name() {
		case "PARTITION":
			n[0] += sp.Counter("rows.pruned")
		case "COMBINE":
			n[1] += sp.Counter("rows.in")
		}
	})
	n[2] = res.Cluster.RecordsShuffled
	if n[0] == 0 || n[1] == 0 {
		t.Errorf("pruned/delivered/shuffled = %v: the hash layout pruned or delivered nothing", n)
	}
	return n
}

// TestCheckpointRecoveryAtShuffleBarrier is the headline acceptance
// property: a node killed right after the shuffle barrier, with
// checkpointing on, yields multiset-identical results, recovers its
// partitions from checkpoint, and never re-runs SUMMARIZE for the
// surviving partitions (task spans equal to a fault-free run).
func TestCheckpointRecoveryAtShuffleBarrier(t *testing.T) {
	db := newTestDB(t)
	for _, q := range chaosQueries {
		t.Run(q.name, func(t *testing.T) {
			db.SetCheckpoints(false)
			db.MustConfigure(WithFaults(nil))
			base, err := db.Execute(q.sql, Trace())
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Rows) == 0 {
				t.Fatal("baseline produced no rows")
			}
			baseTasks := phaseTasks(base.Trace, "SUMMARIZE")
			if baseTasks == 0 {
				t.Fatal("baseline trace has no SUMMARIZE tasks — probe broken")
			}

			db.SetCheckpoints(true)
			db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))
			res, err := db.Execute(q.sql, Trace())
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, q.name+" after barrier kill", res.Rows, base.Rows)
			if res.Faults.BarrierKills == 0 {
				t.Error("no barrier kill fired — injection not wired through")
			}
			if res.Faults.PartitionsRecovered == 0 {
				t.Error("no partitions recovered from checkpoint")
			}
			if res.Faults.CheckpointBytes == 0 {
				t.Error("CheckpointBytes = 0 — nothing was made durable")
			}
			if got := phaseTasks(res.Trace, "SUMMARIZE"); got != baseTasks {
				t.Errorf("SUMMARIZE task spans = %d, want %d — surviving partitions must not re-run SUMMARIZE", got, baseTasks)
			}
			if got, want := countSpans(res.Trace, "SUMMARIZE"), countSpans(base.Trace, "SUMMARIZE"); got != want {
				t.Errorf("SUMMARIZE phase spans = %d, want %d — step must not abort-and-rerun", got, want)
			}
			if countSpans(res.Trace, "recover") == 0 {
				t.Error("no recover spans — recovery invisible to tracing")
			}
			if countSpans(res.Trace, "barrier shuffle") == 0 {
				t.Error("no shuffle barrier span")
			}
		})
	}
}

// TestRecoveryAbortRerunWithoutCheckpoints pins the baseline the
// tentpole replaces: the same barrier kill without a checkpoint store
// still converges — by re-running the whole join step, visible as
// extra SUMMARIZE spans and zero checkpoint recoveries.
func TestRecoveryAbortRerunWithoutCheckpoints(t *testing.T) {
	db := newTestDB(t)
	q := chaosQueries[0]
	base, err := db.Execute(q.sql, Trace())
	if err != nil {
		t.Fatal(err)
	}
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))
	res, err := db.Execute(q.sql, Trace())
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "abort-and-rerun", res.Rows, base.Rows)
	if res.Faults.PartitionsRecovered != 0 {
		t.Errorf("PartitionsRecovered = %d, want 0 without checkpoints", res.Faults.PartitionsRecovered)
	}
	if res.Faults.CheckpointBytes != 0 {
		t.Errorf("CheckpointBytes = %d, want 0 without checkpoints", res.Faults.CheckpointBytes)
	}
	if res.Faults.Retries == 0 {
		t.Error("no step retry recorded for the aborted attempt")
	}
	if got, want := countSpans(res.Trace, "SUMMARIZE"), countSpans(base.Trace, "SUMMARIZE"); got <= want {
		t.Errorf("SUMMARIZE phase spans = %d, want > %d — abort-and-rerun must replay the step", got, want)
	}
}

// TestAbortRerunGiveUpStaysRetryable pins what abort-and-rerun returns
// when every attempt loses a node at a barrier: the give-up error must
// still carry the *BarrierLossError and classify retryable, so a caller
// one level up (the failover pool, a client) may try the query again.
func TestAbortRerunGiveUpStaysRetryable(t *testing.T) {
	db := newTestDB(t)
	db.MustConfigure(WithRetryPolicy(cluster.RetryPolicy{MaxAttempts: 2}))
	db.MustConfigure(WithFaults(&cluster.FaultConfig{Seed: 1, BarrierKillProb: 1}))
	_, err := db.Execute(chaosQueries[0].sql)
	if err == nil {
		t.Fatal("every attempt lost a node at a barrier, yet the query succeeded")
	}
	var loss *cluster.BarrierLossError
	if !errors.As(err, &loss) {
		t.Errorf("give-up error does not wrap a *BarrierLossError: %v", err)
	}
	if !cluster.IsRetryable(err) {
		t.Errorf("give-up error is not retryable: %v", err)
	}
}

// recoveryLayouts are the three COMBINE layouts the shuffle barrier
// must heal: hash (spatial), naive theta and smart theta (interval).
// prefix names the layout's subtests.
var recoveryLayouts = []struct {
	prefix     string
	sql        string
	smartTheta bool
}{
	{"", chaosQueries[0].sql, false},
	{"naive-theta-", chaosQueries[2].sql, false},
	{"smart-theta-", chaosQueries[2].sql, true},
}

// TestCheckpointRecoveryHealsDamage pins corruption healing: with
// every checkpoint write torn (or bit-flipped), a barrier kill still
// converges to the fault-free answer — the damaged checkpoints are
// detected by checksum, discarded, and the partitions recomputed from
// the surviving pre-shuffle data under the layout's routes.
func TestCheckpointRecoveryHealsDamage(t *testing.T) {
	db := newTestDB(t)
	for _, lay := range recoveryLayouts {
		db.MustConfigure(WithSmartTheta(lay.smartTheta))
		db.SetCheckpoints(false)
		db.MustConfigure(WithFaults(nil))
		base, err := db.Execute(lay.sql, Trace())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			arm  func(cfg *cluster.FaultConfig)
		}{
			{"torn-write", func(cfg *cluster.FaultConfig) { cfg.TornWriteProb = 1 }},
			{"checkpoint-corrupt", func(cfg *cluster.FaultConfig) { cfg.CheckpointCorruptProb = 1 }},
		} {
			t.Run(lay.prefix+tc.name, func(t *testing.T) {
				cfg := barrierKillConfig(cluster.BarrierShuffle, 1)
				tc.arm(cfg)
				db.SetCheckpoints(true)
				db.MustConfigure(WithFaults(cfg))
				res, err := db.Execute(lay.sql, Trace())
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, tc.name, res.Rows, base.Rows)
				// Every damaged partition was rebuilt by cluster.Received
				// from the pre-shuffle data: under the hash layout it must
				// rebuild exactly the pruned input.
				if lay.prefix == "" {
					if got, want := shuffled(t, res), shuffled(t, base); got != want {
						t.Errorf("pruned/delivered/shuffled = %v, want the fault-free %v", got, want)
					}
				}
				if res.Faults.CheckpointsDiscarded == 0 {
					t.Error("no damaged checkpoints discarded at p=1")
				}
				if res.Faults.PartitionsRecovered != 0 {
					t.Errorf("PartitionsRecovered = %d, want 0 — every checkpoint was damaged", res.Faults.PartitionsRecovered)
				}
				if res.Faults.Retries != 0 {
					t.Errorf("Retries = %d, want 0 — healing must not abort-and-rerun", res.Faults.Retries)
				}
			})
		}
	}
}

// TestKillAtBarrierMatrix sweeps join × layout × barrier × node: every
// combination must recover in place and agree with the fault-free
// answer.
func TestKillAtBarrierMatrix(t *testing.T) {
	db := newTestDB(t)
	type query struct {
		name, sql  string
		smartTheta bool
	}
	var queries []query
	for _, q := range chaosQueries {
		queries = append(queries, query{q.name, q.sql, false})
	}
	queries = append(queries, query{"interval-smart-theta", chaosQueries[2].sql, true})
	for _, q := range queries {
		db.MustConfigure(WithSmartTheta(q.smartTheta))
		base, err := db.Execute(q.sql, Trace())
		if err != nil {
			t.Fatal(err)
		}
		hash := q.name == "spatial" || q.name == "textsim"
		db.SetCheckpoints(true)
		for _, b := range []cluster.Barrier{cluster.BarrierPlan, cluster.BarrierShuffle} {
			for node := 0; node < 2; node++ {
				name := fmt.Sprintf("%s/%s-node%d", q.name, b, node)
				db.MustConfigure(WithFaults(barrierKillConfig(b, node)))
				res, err := db.Execute(q.sql, Trace())
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, name, res.Rows, base.Rows)
				if hash && b == cluster.BarrierShuffle {
					if got, want := shuffled(t, res), shuffled(t, base); got != want {
						t.Errorf("%s: pruned/delivered/shuffled = %v, want the fault-free %v", name, got, want)
					}
				}
				if res.Faults.BarrierKills != 1 {
					t.Errorf("%s: BarrierKills = %d, want 1", name, res.Faults.BarrierKills)
				}
				if res.Faults.PartitionsRecovered == 0 {
					t.Errorf("%s: no partitions recovered", name)
				}
				if res.Faults.Retries != 0 {
					t.Errorf("%s: Retries = %d, want 0 — recovery is in place", name, res.Faults.Retries)
				}
			}
		}
		db.SetCheckpoints(false)
		db.MustConfigure(WithFaults(nil))
	}
}

// TestPlainQueryLeavesNoRecoveryFootprint guards the always-attached
// recovery manager: with no faults armed and no checkpoints, a FUDJ
// query crosses both barriers without recording a fault, without a
// barrier, recover or sched span, and without touching the filesystem —
// TMPDIR names a directory that does not exist, so creating a checkpoint
// store or a spill directory would fail the query.
func TestPlainQueryLeavesNoRecoveryFootprint(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "never-created")
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	for _, q := range chaosQueries {
		res, err := db.Execute(q.sql, Trace())
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if res.Faults != (FaultStats{}) {
			t.Errorf("%s: Faults = %+v, want all zero", q.name, res.Faults)
		}
		res.Trace.Walk(func(_ int, sp *trace.Span) {
			if n := sp.Name(); n == "recover" || n == "sched" || strings.HasPrefix(n, "barrier ") {
				t.Errorf("%s: trace has a %q span", q.name, n)
			}
		})
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("TMPDIR was touched: stat = %v", err)
	}
}

// TestCheckpointRecoverySweepsTempFiles asserts query teardown leaves
// no checkpoint or spill file behind, even under a full chaos mix with
// barrier kills and damaged checkpoint writes.
func TestCheckpointRecoverySweepsTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	db.SetCheckpoints(true)
	db.MustConfigure(WithMemoryBudget(64 << 20))
	cfg := chaosConfig(5)
	cfg.BarrierKills = []cluster.BarrierKill{{Barrier: cluster.BarrierShuffle, Node: 0}}
	cfg.TornWriteProb = 0.2
	db.MustConfigure(WithFaults(cfg))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	for _, q := range chaosQueries {
		mustQuery(t, db, q.sql)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after teardown: %s", e.Name())
	}
}

// TestRecoveryCancelledQuerySweepsTempFiles covers the abandoned-query
// path: a query cancelled mid-flight (both nodes straggling) must
// still tear down its spill and checkpoint directories.
func TestRecoveryCancelledQuerySweepsTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	db.SetCheckpoints(true)
	db.MustConfigure(WithMemoryBudget(64 << 20))
	db.MustConfigure(WithFaults(&cluster.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 400 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := db.ExecuteContext(ctx, chaosQueries[0].sql); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after cancelled query: %s", e.Name())
	}
}
