// Command benchmark is fudj-e2e: the repository's end-to-end,
// layer-attributed benchmark of the three paper joins. README.md in
// this directory says what each workload loads and how to read the
// output; BENCHMARK.json at the repository root names the metrics.
//
//	go run -C benchmark . [-seed N] [-rounds 5] [-round-secs 4] [-workloads a,b] [-traced=true] [-out out]
//	go run -C benchmark . -compare a.json b.json
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// results is results.json.
type results struct {
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	RoundSecs float64            `json:"round_secs"`
	Env       map[string]string  `json:"env"`
	Note      string             `json:"note"`
	Workloads map[string]*report `json:"workloads"`
}

const deviceNote = "spill and checkpoint files go to the benchmark's own TMPDIR; device latency is this sandbox's, not a disk's"

func cpuModel() string {
	buf, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the model is then unknown
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "seed of the fudj.Gen* dataset generators")
	rounds := fs.Int("rounds", 5, "measured rounds per workload")
	roundSecs := fs.Float64("round-secs", 4, "seconds per round")
	names := fs.String("workloads", "", "comma-separated workloads (default: all)")
	traced := fs.Bool("traced", true, "also run the traced phase and the layer replays (per-layer metrics)")
	out := fs.String("out", "out", "directory for results.json and the Chrome traces")
	tmp := fs.String("tmpdir", "", "directory to create the benchmark's TMPDIR in (default: -out; /dev/shm takes the device out of the numbers)")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments")
	// The harness protocol: one workload, a total measuring time, and a
	// switch between the end-to-end and the per-layer metrics.
	one := fs.String("workload", "", "run this one workload and end with one JSON line (harness protocol)")
	seconds := fs.Float64("seconds", 0, "with -workload: total measured seconds, split into -rounds rounds")
	traceSel := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results.json files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	ws := workloads
	if *one != "" {
		*names = *one
		*traced = *traceSel == 1
		if *seconds > 0 {
			*roundSecs = *seconds / float64(*rounds)
		}
	}
	if *names != "" {
		ws = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			ws = append(ws, w)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *tmp == "" {
		*tmp = *out
	}
	// Every spill run and checkpoint the program writes goes under a
	// fresh directory of the benchmark's own, so a leak is visible as a
	// leftover file and nothing outside the tree is touched.
	tmpDir, err := os.MkdirTemp(*tmp, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)
	if err := os.Setenv("TMPDIR", tmpDir); err != nil {
		return err
	}

	cfg := config{
		seed: *seed, scale: 1, rounds: *rounds, roundSecs: *roundSecs,
		setupSecs: 1, layers: *traced, outDir: *out, tmpDir: tmpDir,
	}
	reports, err := runAll(ws, cfg)
	if err != nil {
		return err
	}

	res := results{
		Seed: *seed, Rounds: *rounds, RoundSecs: *roundSecs, Note: deviceNote, Workloads: reports,
		Env: map[string]string{
			"cpu": cpuModel(), "nproc": fmt.Sprint(runtime.NumCPU()),
			"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		},
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "results.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}

	failed := 0
	for _, w := range ws {
		rep := reports[w.name]
		printMetrics(w.name, endToEndMetrics, rep.EndToEnd)
		printMetrics(w.name, perLayerMetrics, rep.PerLayer)
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED", f)
		}
		failed += rep.Failed
	}
	fmt.Println("#", deviceNote)
	if *one != "" {
		if err := printHarnessLine(reports[*one], *traced); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d statements failed their check", failed)
	}
	return nil
}

// printMetrics prints one "workload name value unit" line per metric
// that was measured.
func printMetrics(workload string, specs []metric, values map[string]float64) {
	for _, s := range specs {
		if v, ok := values[s.Name]; ok {
			fmt.Printf("%s %s %.6g %s\n", workload, s.Name, v, s.Unit)
		}
	}
}

// printHarnessLine ends the output with the one JSON object the
// harness reads: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one.
func printHarnessLine(rep *report, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEndMetrics, rep.EndToEnd
	if traced {
		specs, values = perLayerMetrics, rep.PerLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		metrics[s.Name] = value{values[s.Name], s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
