package fudj_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fudj"
	"fudj/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceEnv opens a deterministic database: fixed seeds, small datasets,
// the three reference joins, and a fake clock so the whole stack runs
// off injected time. opts are added to Open's.
func traceEnv(t *testing.T, opts ...fudj.Option) *fudj.DB {
	t.Helper()
	db, err := fudj.Open(append([]fudj.Option{
		fudj.WithCluster(4, 2),
		fudj.WithClock(trace.NewFakeClock(time.Unix(1700000000, 0), time.Millisecond)),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, lib := range []*fudj.Library{
		fudj.SpatialLibrary(), fudj.TextSimilarityLibrary(), fudj.IntervalLibrary(),
	} {
		if err := db.InstallLibrary(lib); err != nil {
			t.Fatal(err)
		}
	}
	for name, ds := range map[string]*fudj.GeneratedDataset{
		"parks":        fudj.GenParks(1, 120),
		"wildfires":    fudj.GenWildfires(2, 240),
		"nyctaxi":      fudj.GenNYCTaxi(3, 200),
		"amazonreview": fudj.GenAmazonReview(4, 200),
	} {
		if err := fudj.LoadGenerated(db, name, ds); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		`CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		`CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
	} {
		if _, err := db.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exampleQueries are the paper's three reference joins.
var exampleQueries = map[string]string{
	"spatial": `SELECT COUNT(*) FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 16)`,
	"interval": `SELECT COUNT(*) FROM nyctaxi a, nyctaxi b
		WHERE a.vendor = 1 AND b.vendor = 2
		AND overlapping_interval(a.ride_interval, b.ride_interval, 500)`,
	"textsim": `SELECT COUNT(*) FROM amazonreview a, amazonreview b
		WHERE a.overall = 5 AND b.overall = 4
		AND text_similarity_join(a.review, b.review, 0.8)`,
}

var (
	durRe  = regexp.MustCompile(`(time|max|total)=[0-9.]+(s|ms|µs)`)
	busyRe = regexp.MustCompile(`busy\.ns=[0-9]+`)
)

// scrub replaces wall-time values, which vary run to run even under a
// fake clock (goroutine interleavings decide which tick a task sees),
// with placeholders. Row, byte, and task counts are deterministic and
// survive verbatim.
func scrub(s string) string {
	s = durRe.ReplaceAllString(s, "$1=<dur>")
	s = busyRe.ReplaceAllString(s, "busy.ns=<n>")
	return s
}

// TestExplainAnalyzeGolden runs EXPLAIN ANALYZE over all three example
// joins and compares the rendered plans, with durations scrubbed,
// against golden files. Regenerate with: go test -run Golden -update .
func TestExplainAnalyzeGolden(t *testing.T) {
	db := traceEnv(t)
	for name, q := range exampleQueries {
		t.Run(name, func(t *testing.T) {
			res, err := db.Execute("EXPLAIN ANALYZE " + q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("EXPLAIN ANALYZE returned no rows")
			}
			var lines []string
			for _, row := range res.Rows {
				lines = append(lines, scrub(row[0].Str()))
			}
			got := strings.Join(lines, "\n") + "\n"

			golden := filepath.Join("testdata", "explain_analyze_"+name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestExplainAnalyzePhases asserts the acceptance contract directly:
// each example join's plan shows all three phases with a time and at
// least one rows/bytes counter per phase.
func TestExplainAnalyzePhases(t *testing.T) {
	db := traceEnv(t)
	for name, q := range exampleQueries {
		t.Run(name, func(t *testing.T) {
			res, err := db.Execute("EXPLAIN ANALYZE " + q)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			for _, row := range res.Rows {
				text.WriteString(row[0].Str())
				text.WriteByte('\n')
			}
			plan := text.String()
			for _, phase := range []string{"SUMMARIZE", "PARTITION", "COMBINE"} {
				re := regexp.MustCompile(phase + ` time=[0-9.]+(s|ms|µs) .*(rows\.|bytes)`)
				if !re.MatchString(plan) {
					t.Errorf("phase %s missing time or rows/bytes counters:\n%s", phase, plan)
				}
			}
			if !strings.Contains(plan, "shuffle.bytes=") {
				t.Errorf("plan missing shuffle bytes:\n%s", plan)
			}
		})
	}
}

// TestResultTrace covers the per-query opt-in: no trace by default, a
// finished span tree with fudj.Trace(), and a loadable Chrome export.
func TestResultTrace(t *testing.T) {
	db := traceEnv(t)
	q := exampleQueries["spatial"]

	plain, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced query carries a span tree")
	}

	traced, err := db.Execute(q, fudj.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("fudj.Trace() produced no span tree")
	}
	if traced.Trace.Name() != "query" || traced.Trace.Duration() <= 0 {
		t.Fatalf("root span bad: name=%q dur=%v", traced.Trace.Name(), traced.Trace.Duration())
	}
	if len(plain.Rows) != len(traced.Rows) {
		t.Fatalf("tracing changed results: %d vs %d rows", len(plain.Rows), len(traced.Rows))
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, traced.Trace); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("chrome export suspiciously small: %d events", len(events))
	}
}

// TestMetricsValues pins Result.Metrics, the flat name → value view of
// one query's counters, under four configurations: the exact key set,
// every counter equal to its typed Result field, and the sched.* keys
// present only when the scheduler queued the query or granted a lease.
func TestMetricsValues(t *testing.T) {
	const budget = 256 << 10
	retries := chaosRetries
	retries.SpeculativeAfter = 2 * time.Millisecond
	for _, c := range []struct {
		name   string
		budget int64 // bound on Memory.Peak; 0 for none
		opts   []fudj.Option
	}{
		{"plain", 0, nil},
		{"budget-checkpoints", budget, []fudj.Option{fudj.WithMemoryBudget(budget), fudj.WithCheckpoints()}},
		{"pool", budget, []fudj.Option{fudj.WithMemoryPool(budget), fudj.WithConcurrencyLimit(2)}},
		{"faults", 0, []fudj.Option{fudj.WithCheckpoints(), fudj.WithRetryPolicy(retries),
			fudj.WithFaults(&fudj.FaultConfig{
				Seed:           3,
				CrashProb:      0.2,
				CorruptProb:    0.05,
				StragglerNodes: []int{2},
				StragglerDelay: 5 * time.Millisecond,
				BarrierKills:   []fudj.BarrierKill{{Barrier: fudj.BarrierShuffle, Node: 1}},
				TornWriteProb:  1,
			})}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := traceEnv(t, c.opts...)
			res, err := db.Execute(exampleQueries["spatial"])
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{
				"shuffle.bytes":                   res.Cluster.BytesShuffled,
				"shuffle.records":                 res.Cluster.RecordsShuffled,
				"broadcast.bytes":                 res.Cluster.BytesBroadcast,
				"tasks":                           res.Cluster.Tasks,
				"task.busy.count":                 res.Cluster.Tasks,
				"task.busy.sum":                   int64(res.Cluster.TotalBusy),
				"retries":                         res.Faults.Retries,
				"recovered":                       res.Faults.Recovered,
				"speculative":                     res.Faults.Speculative,
				"corruptions.healed":              res.Faults.CorruptionsHealed,
				"barrier.kills":                   res.Faults.BarrierKills,
				"checkpoint.bytes":                res.Faults.CheckpointBytes,
				"checkpoint.partitions.recovered": res.Faults.PartitionsRecovered,
				"checkpoint.discarded":            res.Faults.CheckpointsDiscarded,
				"mem.reserved.peak":               res.Memory.Peak,
				"mem.input":                       res.Memory.PeakInput,
				"mem.input.peak":                  res.Memory.PeakInput,
				"spill.bytes":                     res.Memory.BytesSpilled,
				"spill.runs":                      res.Memory.SpillRuns,
				"buckets.split":                   res.Memory.BucketsSplit,
				"backpressure":                    res.Memory.Backpressure,
				"batch.count":                     res.Join.Batches,
				"batch.rows":                      res.Join.BatchRows,
				"join.candidates":                 res.Join.Candidates,
				"join.verified":                   res.Join.Verified,
				"join.deduped":                    res.Join.Deduped,
				"join.output":                     res.Join.Output,
				"join.materialized":               res.Join.Materialized,
				"join.state.bytes":                res.Join.StateBytes,
				"join.summarize.ns":               int64(res.Join.SummarizeTime),
				"join.partition.ns":               int64(res.Join.PartitionTime),
				"join.combine.ns":                 int64(res.Join.CombineTime),
				"sched.admitted":                  1,
			}
			if wait := int64(res.Sched.QueueWait); wait > 0 {
				want["sched.queued"] = 1
				want["sched.queue.wait.ns.count"] = 1
				want["sched.queue.wait.ns.sum"] = wait
				want["sched.queue.wait.ns.max"] = wait
			}
			if lease := res.Sched.LeaseBytes; lease > 0 {
				want["sched.lease.bytes"] = lease
				want["sched.lease.bytes.peak"] = lease
			}
			// Values without a typed field: checked by bound below.
			want["mem.reserved"] = res.Metrics["mem.reserved"]
			want["task.busy.max"] = res.Metrics["task.busy.max"]
			for k, v := range want {
				got, ok := res.Metrics[k]
				if !ok {
					t.Errorf("Result.Metrics missing %q", k)
				} else if got != v {
					t.Errorf("Result.Metrics[%q] = %d, want %d", k, got, v)
				}
			}
			for k := range res.Metrics {
				if _, ok := want[k]; !ok {
					t.Errorf("Result.Metrics has unexpected key %q", k)
				}
			}
			if m := res.Metrics["task.busy.max"]; m <= 0 || m > int64(res.Cluster.MaxBusy) {
				t.Errorf("task.busy.max = %d outside (0, MaxBusy %d]", m, res.Cluster.MaxBusy)
			}
			if m := res.Metrics["mem.reserved"]; m < 0 || m > res.Memory.Peak {
				t.Errorf("mem.reserved = %d outside [0, peak %d]", m, res.Memory.Peak)
			}
			if c.budget > 0 && res.Memory.Peak > c.budget {
				t.Errorf("mem.reserved.peak = %d above the %d budget", res.Memory.Peak, c.budget)
			}
			if c.name == "faults" && (res.Faults.BarrierKills == 0 || res.Faults.CheckpointsDiscarded == 0) {
				t.Errorf("fault configuration injected nothing: %+v", res.Faults)
			}
			if c.name == "pool" && res.Sched.LeaseBytes == 0 {
				t.Error("memory pool granted no lease")
			}
		})
	}
}
