package bench

import (
	"fmt"

	"fudj"
)

// Fig. 10: query execution time vs number of cores, FUDJ vs built-in,
// for all three joins. The paper sweeps 12→144 cores on 12 nodes; the
// harness sweeps total worker partitions at laptop scale and reports
// both wall time and MaxBusy — the per-partition makespan, which keeps
// scaling even after wall time saturates the host's physical cores.
//
// Fig. 11: the effect of the number of buckets (spatial, interval) and
// of the similarity threshold (text-similarity) on execution time, at
// several core counts.

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Scalability: execution time vs cores (Fig. 10)",
		Paper: "spatial and text-similarity scale with cores; interval limited by theta matching; FUDJ tracks built-in",
		Run:   figures(fig10),
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Effect of bucket count and similarity threshold (Fig. 11)",
		Paper: "U-shaped cost in bucket count; text-similarity cost explodes as the threshold drops",
		Run:   figures(fig11),
	})
}

func fig10(cfg Config) []figure {
	// Scaled-down core sweep mirroring the paper's 12/48/96/144: the
	// point is the total core count, Nodes × {1, 2, 4, 6}.
	n := cfg.Nodes
	onCores := func(m fudj.JoinMode) func(*fudj.DB, int) {
		return func(db *fudj.DB, cores int) {
			db.MustConfigure(fudj.WithJoinMode(m), fudj.WithCluster(n, cores/n))
		}
	}
	table := func(title string, env func(int) (*fudj.DB, error), q string) figure {
		return figure{
			title:  "-- Fig. 10: " + title + " --",
			label:  "cores",
			points: []int{n, 2 * n, 4 * n, 6 * n},
			env:    env,
			arms:   []arm{{"FUDJ wall", q, onCores(fudj.ModeFUDJ)}, {"Built-in wall", q, onCores(fudj.ModeBuiltin)}},
			cols:   []column{per("FUDJ makespan", 0, makespan), per("Built-in makespan", 1, makespan)},
		}
	}
	return []figure{
		table("spatial (grid 32)", fixedEnv(cfg, cfg.scaled(2000), cfg.scaled(4000), 0, 0),
			`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`),
		table("interval (1000 granules)", fixedEnv(cfg, 0, 0, cfg.scaled(6000), 0),
			`SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
				WHERE n1.vendor = 1 AND n2.vendor = 2
				AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`),
		table("text-similarity (t=0.9)", fixedEnv(cfg, 0, 0, 0, cfg.scaled(6000)),
			`SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
				WHERE r1.overall = 5 AND r2.overall = 4
				AND text_similarity_join(r1.review, r2.review, 0.9)`),
	}
}

func fig11(cfg Config) []figure {
	// One arm per core count, each running the table's query.
	onCores := func(q string) []arm {
		var arms []arm
		for _, c := range []int{1, 2, 4} {
			arms = append(arms, arm{fmt.Sprintf("%d cores", cfg.Nodes*c), q, with(fudj.WithCluster(cfg.Nodes, c))})
		}
		return arms
	}
	return []figure{{
		title:  "-- Fig. 11a: spatial join vs number of buckets (grid n, buckets = n^2) --",
		label:  "grid n",
		points: []int{2, 4, 8, 16, 32, 64},
		env:    fixedEnv(cfg, cfg.scaled(2000), cfg.scaled(4000), 0, 0),
		arms:   onCores(`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`),
	}, {
		title:  "-- Fig. 11b: interval join vs number of buckets (granules) --",
		label:  "granules",
		points: []int{1, 10, 100, 500, 1000, 2500},
		env:    fixedEnv(cfg, 0, 0, cfg.scaled(5000), 0),
		arms: onCores(`SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
			WHERE n1.vendor = 1 AND n2.vendor = 2
			AND overlapping_interval(n1.ride_interval, n2.ride_interval, %d)`),
	}, {
		// The point is the threshold in hundredths.
		title:  "-- Fig. 11c: text-similarity join vs similarity threshold --",
		label:  "threshold",
		show:   "0.%02d",
		points: []int{95, 90, 80, 70, 60, 50},
		env:    fixedEnv(cfg, 0, 0, 0, cfg.scaled(3000)),
		arms: onCores(`SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND text_similarity_join(r1.review, r2.review, 0.%02d)`),
	}}
}
