// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -exp all                # every experiment
//	benchrunner -exp fig9 -scale 2      # one experiment, bigger data
//	benchrunner -list                   # list experiment ids
//
// -list prints the ids: the paper's table1, table2, fig1, fig9 (a/b/c),
// fig10, fig11 and fig12a/b/c; the ablation_* and extra_* experiments;
// and stress, stress-net and serve-ha, the serving experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fudj/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id to run, or 'all'")
		scale  = flag.Float64("scale", 1.0, "dataset scale factor")
		nodes  = flag.Int("nodes", 4, "simulated cluster nodes")
		cores  = flag.Int("cores", 2, "cores per node")
		seed   = flag.Int64("seed", 42, "data generation seed")
		budget = flag.Duration("budget", 20*time.Second, "per-run budget before an arm is marked DNF")
		jsout  = flag.String("json", "", "path for experiments that write a JSON artifact")
		list   = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Scale:   *scale,
		Nodes:   *nodes,
		Cores:   *cores,
		Seed:    *seed,
		Budget:  *budget,
		JSONOut: *jsout,
	}
	if err := bench.Run(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}
