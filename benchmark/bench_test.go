package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fudj"
	"fudj/internal/trace"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// testConfig is a run at a tenth of the size with one 0.2 s round.
func testConfig(t *testing.T) config {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return config{seed: 42, scale: 0.1, rounds: 1, roundSecs: 0.2, layers: true, outDir: t.TempDir(), tmpDir: tmp}
}

// Every workload runs, passes its oracle, and emits exactly the metric
// names BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	cfg := testConfig(t)
	reports, err := runAll(workloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		rep := reports[w.name]
		if rep == nil {
			t.Fatalf("%s: no report", w.name)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, rep.Attempted, rep.Failed, rep.Failures)
		}
		for _, part := range []struct {
			got  map[string]float64
			want []metric
		}{{rep.EndToEnd, spec.EndToEnd}, {rep.PerLayer, spec.PerLayer}} {
			listed := make(map[string]bool)
			for _, m := range part.want {
				listed[m.Name] = true
				if _, ok := part.got[m.Name]; !ok {
					t.Errorf("%s: BENCHMARK.json lists %s, not emitted", w.name, m.Name)
				}
			}
			for name := range part.got {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", w.name, name)
				}
				if !listed[name] {
					t.Errorf("%s: emits %s, not in BENCHMARK.json", w.name, name)
				}
			}
		}
		for _, m := range endToEndMetrics {
			if rep.EndToEnd[m.Name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, rep.EndToEnd[m.Name])
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.name, err)
		}
	}
	if left := leftovers(cfg.tmpDir); len(left) > 0 {
		t.Errorf("files left in TMPDIR: %v", left)
	}
	// The load-bypass predictions that hold at any size.
	hash, bounded := reports["spatial_hash"].PerLayer, reports["spatial_bounded"].PerLayer
	if hash["engine.spill_bytes"] != 0 || hash["cluster.checkpoint_bytes"] != 0 {
		t.Errorf("spatial_hash spilled or checkpointed: %v %v", hash["engine.spill_bytes"], hash["cluster.checkpoint_bytes"])
	}
	if bounded["cluster.checkpoint_bytes"] <= 0 {
		t.Errorf("spatial_bounded wrote no checkpoint")
	}
	if reports["served_mix"].PerLayer["serve.executed"] <= 0 {
		t.Errorf("served_mix: the server executed nothing")
	}
}

// The Go tables and BENCHMARK.json say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, program has %+v", kind, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := percentile(xs, 0.9); got != 5 {
		t.Errorf("p90 of five = %v", got)
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.9); got != 9 {
		t.Errorf("p90 of ten = %v", got)
	}
	if got := percentile(ten, 1); got != 10 {
		t.Errorf("max = %v", got)
	}
	if median(nil) != 0 || percentile(nil, 0.9) != 0 {
		t.Errorf("empty input must give 0")
	}
	if xs[0] != 5 {
		t.Errorf("input was reordered")
	}
	// Median of rounds: the per-round values 10, 30, 20 give 20 and a
	// spread of (30-10)/20.
	if got := spread([]float64{10, 30, 20}); got != 1 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := covered(0, 100, []interval{{10, 30}, {20, 50}, {70, 80}, {90, 150}}); got != 60 {
		t.Errorf("covered = %d, want 60 (overlaps once, clipped at 100)", got)
	}
	// Each Now() call advances the fake clock by 1 ms.
	clk := trace.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	root := trace.NewSpan(clk, "COMBINE") // t=0
	ex := root.Child("exchange")          // 1
	ex.End()                              // 2
	task := root.Task(0)                  // 3
	task.End()                            // 4
	ex2 := root.Child("exchange")         // 5
	ex2.End()                             // 6
	root.End()                            // 7
	if got := selfTime(root, func(c *trace.Span) bool { return !isTask(c) }); got != 5*time.Millisecond {
		t.Errorf("self time = %v, want 5ms: 7ms less two 1ms exchanges, the task not subtracted", got)
	}
	split := attribute(&fudj.Result{Trace: root, Elapsed: 8 * time.Millisecond})
	if split["engine.combine_ms"] != 5 || split["cluster.exchange_ms"] != 2 || split["engine.unattributed_ms"] != 1 {
		t.Errorf("attribute = %v", split)
	}
}

func TestDigestIsAMultisetChecksum(t *testing.T) {
	row := func(a, b int64) fudj.Record { return fudj.Record{fudj.NewInt64(a), fudj.NewInt64(b)} }
	rows := []fudj.Record{row(1, 2), row(3, 4), row(5, 6), row(3, 4)}
	want := digestOf(rows)
	if got := digestOf([]fudj.Record{rows[3], rows[2], rows[0], rows[1]}); got != want {
		t.Errorf("digest depends on row order")
	}
	if got := digestOf(rows[:3]); got == want {
		t.Errorf("dropped row not detected")
	}
	if got := digestOf(append(rows[:4:4], rows[0])); got == want {
		t.Errorf("duplicated row not detected")
	}
	if got := digestOf([]fudj.Record{row(2, 1), row(3, 4), row(5, 6), row(3, 4)}); got == want {
		t.Errorf("swapped columns not detected")
	}
	// Replacing one row by a copy of another keeps the count.
	if got := digestOf([]fudj.Record{row(1, 2), row(1, 2), row(5, 6), row(3, 4)}); got == want {
		t.Errorf("row replaced by a duplicate not detected")
	}
}

func TestOracleCheckFailsOnTamperedResult(t *testing.T) {
	cfg := testConfig(t)
	for _, name := range []string{"spatial_hash", "textsim_summarize"} {
		w, _ := workloadByName(name)
		in, err := setup(w, cfg.seed, cfg.scale)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		if err := in.oracle(); err != nil {
			t.Fatal(err)
		}
		res, err := in.execs[0](w.stmts[0].sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.check(0, res); err != nil {
			t.Fatalf("%s: untampered result rejected: %v", name, err)
		}
		if len(res.Rows) == 1 && len(res.Rows[0]) == 1 { // COUNT(*)
			res.Rows[0] = fudj.Record{fudj.NewInt64(res.Rows[0][0].Int64() + 1)}
		} else {
			res.Rows = res.Rows[1:]
		}
		if err := in.check(0, res); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m            metric
		a, b, na, nb float64
		want         string
	}{
		{lower, 100, 105, 0.02, 0.03, "ok"},
		{lower, 100, 111, 0.02, 0.03, "regressed"},
		{lower, 100, 50, 0.02, 0.03, "ok"},
		{lower, 100, 111, 0.02, 0.12, "unresolved"},
		{metric{Name: "alloc_mb_per_query", Better: "lower", Bound: 0.15}, 100, 101, 0.02, 0.30, "ok"},
		{higher, 100, 95, 0, 0, "ok"},
		{higher, 100, 89, 0, 0, "regressed"},
		{higher, 100, 150, 0, 0, "ok"},
	} {
		if got := verdict(c.m, c.a, c.b, c.na, c.nb); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, noise %v/%v) = %s, want %s", c.m.Name, c.a, c.b, c.na, c.nb, got, c.want)
		}
	}
}
