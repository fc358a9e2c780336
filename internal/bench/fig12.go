package bench

import (
	"fmt"

	"fudj"
)

// Fig. 12: duplicate-handling strategies and the effect of local join
// optimization.
//
//	(a) text-similarity: duplicate avoidance vs elimination across sizes
//	(b) spatial: framework avoidance vs PBSM Reference Point across buckets
//	(c) spatial: FUDJ vs the advanced plane-sweep operator across buckets

func init() {
	register(Experiment{
		ID:    "fig12a",
		Title: "Duplicate handling on text-similarity: avoidance vs elimination (Fig. 12a)",
		Paper: "avoidance wins at every size, ~1.15x on average",
		Run:   figures(fig12a),
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "Duplicate handling on spatial: default avoidance vs Reference Point (Fig. 12b)",
		Paper: "no notable difference between the two methods",
		Run:   figures(fig12b),
	})
	register(Experiment{
		ID:    "fig12c",
		Title: "Local join optimization: Spatial FUDJ vs advanced plane-sweep operator (Fig. 12c)",
		Paper: "plane-sweep local join yields ~1.38x on average",
		Run:   figures(fig12c),
	})
}

func fig12a(cfg Config) []figure {
	// Threshold 0.8 keeps the joined output large enough that the
	// elimination variant's extra distinct shuffle is visible.
	const net = 100e6 // modeled 100 MB/s cluster interconnect
	modeled := func(r runResult) string { return fmtDur(modeledTime(r, net)) }
	modeledSecs := func(r runResult) float64 { return modeledTime(r, net).Seconds() }
	q := `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND %s(r1.review, r2.review, 0.8)`
	return []figure{{
		label:  "reviews",
		points: cfg.sizes(1000, 2000, 4000),
		env:    func(n int) (*fudj.DB, error) { return newEnv(cfg, 0, 0, 0, n) },
		sized:  true,
		arms: []arm{
			{"Avoid wall", fmt.Sprintf(q, "text_similarity_join"), nil},
			{"Elim wall", fmt.Sprintf(q, "text_similarity_elim"), nil},
		},
		cols: []column{
			per("avoid shuffled", 0, shuffled), per("elim shuffled", 1, shuffled),
			per("avoid @100MB/s", 0, modeled), per("elim @100MB/s", 1, modeled),
			ratio("modeled Elim/Avoid", "%.2fx", 1, 0, modeledSecs),
		},
		note: `  (elimination's extra distinct stage always moves more records — the
   shuffled columns show it — but at this scale the join output is small
   relative to the inputs, so the two strategies are near parity even
   with modeled 100 MB/s network time; the paper's ~1.15x avoidance win
   emerges when join output dominates, as on its 83M-review corpus)`,
	}}
}

func fig12b(cfg Config) []figure {
	// A polygon-polygon self-join: polygons overlap several tiles, so
	// duplicate handling has real work to do (a polygon-point join has
	// single-tile points and thus no duplicate pairs).
	return []figure{{
		label:  "grid n",
		points: []int{4, 8, 16, 32, 64},
		env:    fixedEnv(cfg, cfg.scaled(2500), 0, 0, 0),
		arms: []arm{
			{"FUDJ avoidance", `SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join(a.boundary, b.boundary, %d)`, nil},
			{"Reference Point", `SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join_rp(a.boundary, b.boundary, %d)`, nil},
		},
	}}
}

func fig12c(cfg Config) []figure {
	// Three arms: plain FUDJ (nested verify inside each tile), FUDJ with
	// the LocalJoin plane-sweep hook (the framework-level realization of
	// the paper's future-work proposal), and the hand-built advanced
	// plane-sweep operator.
	q := `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`
	return []figure{{
		label:  "grid n",
		points: []int{4, 8, 16, 32, 64},
		env:    fixedEnv(cfg, cfg.scaled(2000), cfg.scaled(4000), 0, 0),
		arms: []arm{
			{"Spatial FUDJ", q, nil},
			{"FUDJ + LocalJoin sweep", `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join_sweep(p.boundary, w.location, %d)`, nil},
			{"Adv. built-in sweep", q, spatialOperator(fudj.BuiltinSpatialPlaneSweep)},
		},
		cols: []column{ratio("builtin speedup", "%.2fx", 0, 2, wall)},
	}}
}
