package bench

import (
	"errors"
	"fmt"
	"io"

	"fudj"
)

// Experiments beyond the paper's figures: ablations of the design
// choices DESIGN.md calls out (ablation_*), and the two extra join
// libraries this repository ships plus the introduction's INLJ
// approach (extra_*).

func init() {
	register(Experiment{
		ID:    "ablation_match",
		Title: "Ablation: hash-join vs theta bucket matching for a default-match join",
		Paper: "motivates the optimizer's hash-join selection (§VI-C)",
		Run:   figures(ablationMatch),
	})
	register(Experiment{
		ID:    "ablation_selfjoin",
		Title: "Ablation: self-join summary reuse on vs off",
		Paper: "motivates the self-join optimization (§VI-C)",
		Run:   runAblationSelfJoin,
	})
	register(Experiment{
		ID:    "ablation_theta",
		Title: "Ablation: naive (broadcast) vs balanced theta operator on the interval join",
		Paper: "the Theta Join Operator proposed as future work (§VIII) to lift the interval join's limit",
		Run:   figures(ablationTheta),
	})
	register(Experiment{
		ID:    "ablation_autotune",
		Title: "Ablation: automatic bucket-count tuning vs manual sweep",
		Paper: "the §VIII future-work item: derive the bucket count from SUMMARIZE statistics",
		Run:   runAblationAutotune,
	})
	register(Experiment{
		ID:    "ablation_dedup",
		Title: "Ablation: duplicate handling disabled vs avoidance (spatial)",
		Paper: "quantifies the duplication factor multi-assign creates (§III-B)",
		Run:   figures(ablationDedup),
	})
	register(Experiment{
		ID:    "extra_traj",
		Title: "Extra: trajectory closeness join, FUDJ vs on-top",
		Paper: "not in the paper; demonstrates the model on the trajectory join class its related work surveys",
		Run:   figures(extraTraj),
	})
	register(Experiment{
		ID:    "extra_inlj",
		Title: "Extra: the introduction's four approaches on the spatial join (FUDJ / built-in / INLJ / on-top)",
		Paper: "§I: INLJ beats on-top but \"works well only when the non-indexed set is relatively small\"",
		Run:   figures(extraINLJ),
	})
	register(Experiment{
		ID:    "extra_distance",
		Title: "Extra: point distance join (kNN-style), FUDJ vs on-top",
		Paper: "not in the paper; demonstrates the model on the distance join class (refs [40][41])",
		Run:   figures(extraDistance),
	})
}

// ablationMatch compares the spatial join (default match, hash-join
// path) against a semantically identical variant whose match function
// is declared explicitly, forcing the theta (broadcast) operator.
func ablationMatch(cfg Config) []figure {
	return []figure{{
		label:  "grid n",
		points: []int{8, 32},
		env:    fixedEnv(cfg, cfg.scaled(1500), cfg.scaled(3000), 0, 0),
		arms: []arm{
			{"hash path", `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`, nil},
			{"theta path", `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join_theta(p.boundary, w.location, %d)`, nil},
		},
		cols: []column{ratio("theta/hash", "%.2fx", 1, 0, wall)},
		note: "  (the hash path is what the optimizer buys by detecting default match)",
	}}
}

// runAblationSelfJoin compares a pure self-join (summary computed once)
// against the same query with trivially different per-side filters that
// defeat self-join detection, so both sides are summarized.
func runAblationSelfJoin(cfg Config, w io.Writer) error {
	// The spatial self-join keeps the COMBINE phase cheap relative to
	// SUMMARIZE, so the saved summary pass is visible. Each arm runs
	// three times and reports the minimum to damp scheduler noise.
	db, err := newEnv(cfg, cfg.scaled(2500), 0, 0, 0)
	if err != nil {
		return err
	}
	reuseQ := `SELECT COUNT(*) FROM parks a, parks b
		WHERE spatial_join(a.boundary, b.boundary, 32)`
	// id >= 0 vs id >= 0 + 0 render differently, so reuse is disabled
	// while the filtered sets stay identical.
	noReuseQ := `SELECT COUNT(*) FROM parks a, parks b
		WHERE a.id >= 0 AND b.id >= 0 + 0
		AND spatial_join(a.boundary, b.boundary, 32)`
	best := func(q string) runResult {
		min := timedQuery(db, q)
		for i := 1; i < 3 && min.err == nil; i++ {
			if r := timedQuery(db, q); r.err != nil || r.elapsed < min.elapsed {
				min = r
			}
		}
		return min
	}
	reuse, noReuse := best(reuseQ), best(noReuseQ)
	if err := errors.Join(reuse.err, noReuse.err); err != nil {
		return err
	}
	if reuse.rows != noReuse.rows {
		return fmt.Errorf("ablation_selfjoin: %d vs %d rows", reuse.rows, noReuse.rows)
	}
	row := func(variant string, r runResult) []string {
		return []string{variant, r.String(), fmtDur(r.maxBusy), fmt.Sprint(r.stateBytes), fmtDur(r.summarize)}
	}
	printTable(w, []string{"variant", "wall (best of 3)", "makespan", "state bytes", "summarize"}, [][]string{
		row("summary reused", reuse), row("both sides summarized", noReuse),
	})
	fmt.Fprintln(w, "  (the no-reuse arm also runs two filter scans, so wall time measures")
	fmt.Fprintln(w, "   different work; the state bytes are the deterministic saving)")
	return nil
}

// ablationTheta compares the paper's measured theta strategy
// (broadcast one side + random-partition the other) against the
// balanced bucket-pair operator, on the interval workload whose
// scalability the paper says the naive operator limits.
func ablationTheta(cfg Config) []figure {
	q := `SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
			WHERE n1.vendor = 1 AND n2.vendor = 2
			AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`
	return []figure{{
		label:  "rides",
		points: cfg.sizes(2000, 4000, 8000),
		env:    func(n int) (*fudj.DB, error) { return newEnv(cfg, 0, 0, n, 0) },
		sized:  true,
		arms:   []arm{{"naive wall", q, nil}, {"bal. wall", q, with(fudj.WithSmartTheta(true))}},
		cols: []column{
			per("naive mkspan", 0, makespan), per("naive shuffled", 0, shuffled),
			per("bal. mkspan", 1, makespan), per("bal. shuffled", 1, shuffled),
			ratio("shuffle reduction", "%.2fx", 0, 1, shuffledN),
		},
		note: `  (wall times on one host are noisy; the shuffle reduction is the
   deterministic win, and makespan improves under skew)`,
	}}
}

// runAblationAutotune compares the auto-sized spatial and interval
// joins (parameter 0) against a manual sweep, showing the derived
// bucket count lands near the sweep's best point.
func runAblationAutotune(cfg Config, w io.Writer) error {
	db, err := newEnv(cfg, cfg.scaled(2000), cfg.scaled(4000), cfg.scaled(5000), 0)
	if err != nil {
		return err
	}
	sweeps := []struct {
		title, label, auto, manual string
		ns                         []int
	}{{
		"-- spatial: auto grid vs manual sweep --", "grid",
		`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join_auto(p.boundary, w.location, 0)`,
		`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`,
		[]int{2, 8, 32, 128},
	}, {
		"-- interval: auto granules vs manual sweep --", "granules",
		`SELECT COUNT(*) FROM nyctaxi a, nyctaxi b
		WHERE a.vendor = 1 AND b.vendor = 2
		AND overlapping_interval_auto(a.ride_interval, b.ride_interval, 0)`,
		`SELECT COUNT(*) FROM nyctaxi a, nyctaxi b
			WHERE a.vendor = 1 AND b.vendor = 2
			AND overlapping_interval(a.ride_interval, b.ride_interval, %d)`,
		[]int{1, 100, 1000},
	}}
	for _, sw := range sweeps {
		fmt.Fprintln(w, sw.title)
		auto := timedQuery(db, sw.auto)
		if auto.err != nil {
			return auto.err
		}
		rows := [][]string{{"auto", auto.String(), fmt.Sprint(auto.rows)}}
		for _, n := range sw.ns {
			r := timedQuery(db, fmt.Sprintf(sw.manual, n))
			if r.err != nil {
				return r.err
			}
			if r.rows != auto.rows {
				return fmt.Errorf("ablation_autotune %s n=%d: %d rows vs auto %d", sw.label, n, r.rows, auto.rows)
			}
			rows = append(rows, []string{fmt.Sprintf("manual n=%d", n), r.String(), fmt.Sprint(r.rows)})
		}
		printTable(w, []string{sw.label, "wall", "results"}, rows)
	}
	return nil
}

// ablationDedup quantifies raw duplication: the no-dedup spatial
// variant emits every bucket-pair hit, versus avoidance which emits each
// result once.
func ablationDedup(cfg Config) []figure {
	// Polygon-polygon self-join, where multi-assignment genuinely
	// duplicates pairs (polygons straddle tile boundaries).
	return []figure{{
		label:  "grid n",
		points: []int{8, 32, 64},
		env:    fixedEnv(cfg, cfg.scaled(1500), 0, 0, 0),
		arms: []arm{
			{"avoidance", `SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join(a.boundary, b.boundary, %d)`, nil},
			{"no dedup", `SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join_nodedup(a.boundary, b.boundary, %d)`, nil},
		},
		cols: []column{
			per("results", 0, results), per("raw pairs", 1, results),
			ratio("dup factor", "%.3fx", 1, 0, resultsN),
		},
		countsDiffer: true,
	}}
}

func extraTraj(cfg Config) []figure {
	return []figure{{
		label:  "trajectories",
		points: cfg.sizes(500, 1000, 2000),
		env: func(n int) (*fudj.DB, error) {
			return soloEnv(cfg, "trips", fudj.GenTrajectories(cfg.Seed+9, n), fudj.TrajectoryLibrary(),
				`CREATE JOIN traj_close(a: linestring, b: linestring, n: int, d: double)
				RETURNS boolean AS "traj.ClosenessJoin" AT trajjoins`)
		},
		sized: true,
		arms: []arm{
			{"FUDJ", `SELECT COUNT(*) FROM trips a, trips b
				WHERE a.class = 1 AND b.class = 2 AND traj_close(a.route, b.route, 24, 2.0)`, nil},
			{"On-top", `SELECT COUNT(*) FROM trips a, trips b
				WHERE a.class = 1 AND b.class = 2 AND st_distance(a.route, b.route) <= 2.0`, nil},
		},
	}}
}

// extraINLJ compares all four implementation approaches from the
// paper's introduction on the spatial workload. The INLJ arm rides the
// built-in dispatch: the spatial_join predicate routed to the R-tree
// indexed nested-loop operator.
func extraINLJ(cfg Config) []figure {
	q := `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`
	return []figure{{
		label:  "parks",
		points: cfg.sizes(500, 1000, 2000, 4000),
		env:    func(n int) (*fudj.DB, error) { return newEnv(cfg, n, 2*n, 0, 0) },
		sized:  true,
		arms: []arm{
			{"FUDJ", q, nil},
			{"Built-in", q, spatialOperator(fudj.BuiltinSpatialPBSM)},
			{"INLJ (R-tree)", q, spatialOperator(fudj.BuiltinSpatialINLJ)},
			{"On-top", `SELECT COUNT(*) FROM parks p, wildfires w
				WHERE st_intersects(p.boundary, w.location)`, nil},
		},
		note: `  (INLJ is competitive at laptop scale, but it broadcasts and re-indexes
   the entire indexed side on every partition — per-partition work grows
   with |indexed side| rather than |indexed side|/P, which is the §I
   scalability caveat the partition-based joins avoid)`,
	}}
}

func extraDistance(cfg Config) []figure {
	return []figure{{
		label:  "points",
		points: cfg.sizes(2000, 4000, 8000),
		env: func(n int) (*fudj.DB, error) {
			return soloEnv(cfg, "wildfires", fudj.GenWildfires(cfg.Seed+10, n), fudj.DistanceLibrary(),
				`CREATE JOIN points_within(a: point, b: point, d: double)
				RETURNS boolean AS "knn.PointsWithin" AT distancejoins`)
		},
		sized: true,
		arms: []arm{
			{"FUDJ", `SELECT COUNT(*) FROM wildfires a, wildfires b
				WHERE a.year = 2020 AND b.year = 2023 AND points_within(a.location, b.location, 5.0)`, nil},
			{"On-top", `SELECT COUNT(*) FROM wildfires a, wildfires b
				WHERE a.year = 2020 AND b.year = 2023 AND st_distance(a.location, b.location) <= 5.0`, nil},
		},
	}}
}
