package bench

import (
	"fmt"
	"io"

	"fudj"
)

// Experiments beyond the paper's figures, covering the two extra join
// libraries this repository ships.

func init() {
	register(Experiment{
		ID:    "extra_traj",
		Title: "Extra: trajectory closeness join, FUDJ vs on-top",
		Paper: "not in the paper; demonstrates the model on the trajectory join class its related work surveys",
		Run:   runExtraTraj,
	})
	register(Experiment{
		ID:    "extra_inlj",
		Title: "Extra: the introduction's four approaches on the spatial join (FUDJ / built-in / INLJ / on-top)",
		Paper: "§I: INLJ beats on-top but \"works well only when the non-indexed set is relatively small\"",
		Run:   runExtraINLJ,
	})
	register(Experiment{
		ID:    "extra_distance",
		Title: "Extra: point distance join (kNN-style), FUDJ vs on-top",
		Paper: "not in the paper; demonstrates the model on the distance join class (refs [40][41])",
		Run:   runExtraDistance,
	})
}

func trajEnv(cfg Config, n int) (*fudj.DB, error) {
	db, err := fudj.Open(fudj.WithCluster(cfg.Nodes, cfg.Cores))
	if err != nil {
		return nil, err
	}
	if err := fudj.LoadGenerated(db, "trips", fudj.GenTrajectories(cfg.Seed+9, n)); err != nil {
		return nil, err
	}
	if err := db.InstallLibrary(fudj.TrajectoryLibrary()); err != nil {
		return nil, err
	}
	if _, err := db.Execute(`CREATE JOIN traj_close(a: linestring, b: linestring, n: int, d: double)
		RETURNS boolean AS "traj.ClosenessJoin" AT trajjoins`); err != nil {
		return nil, err
	}
	return db, nil
}

func runExtraTraj(cfg Config, w io.Writer) error {
	sizes := []int{cfg.scaled(500), cfg.scaled(1000), cfg.scaled(2000)}
	dead := false
	var rows [][]string
	for _, n := range sizes {
		db, err := trajEnv(cfg, n)
		if err != nil {
			return err
		}
		f := timedQuery(db, `SELECT COUNT(*) FROM trips a, trips b
			WHERE a.class = 1 AND b.class = 2 AND traj_close(a.route, b.route, 24, 2.0)`)
		if f.err != nil {
			return f.err
		}
		onTop := runResult{dnf: true}
		if !dead {
			onTop = timedQuery(db, `SELECT COUNT(*) FROM trips a, trips b
				WHERE a.class = 1 AND b.class = 2 AND st_distance(a.route, b.route) <= 2.0`)
			if onTop.err != nil {
				return onTop.err
			}
			if !onTop.dnf && onTop.rows != f.rows {
				return fmt.Errorf("extra_traj n=%d: FUDJ %d rows, on-top %d rows", n, f.rows, onTop.rows)
			}
			if cfg.Budget > 0 && onTop.elapsed > cfg.Budget {
				dead = true
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d", n), f.String(), onTop.String(), fmt.Sprintf("%d", f.rows)})
	}
	printTable(w, []string{"trajectories", "FUDJ", "On-top", "results"}, rows)
	return nil
}

// runExtraINLJ compares all four implementation approaches from the
// paper's introduction on the spatial workload. The INLJ arm rides the
// built-in dispatch: the spatial_join predicate routed to the R-tree
// indexed nested-loop operator.
func runExtraINLJ(cfg Config, w io.Writer) error {
	sizes := []int{cfg.scaled(500), cfg.scaled(1000), cfg.scaled(2000), cfg.scaled(4000)}
	deadOnTop := false
	var rows [][]string
	for _, n := range sizes {
		e, err := newEnv(cfg, n, 2*n, 0, 0)
		if err != nil {
			return err
		}
		q := `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`
		f := timedQuery(e.db, q)
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeBuiltin))
		bi := timedQuery(e.db, q)
		e.db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialINLJ)
		inlj := timedQuery(e.db, q)
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ))
		onTop := runResult{dnf: true}
		if !deadOnTop {
			onTop = timedQuery(e.db, `SELECT COUNT(*) FROM parks p, wildfires w
				WHERE st_intersects(p.boundary, w.location)`)
			if onTop.err == nil && cfg.Budget > 0 && onTop.elapsed > cfg.Budget {
				deadOnTop = true
			}
		}
		for _, r := range []runResult{f, bi, inlj} {
			if r.err != nil {
				return r.err
			}
		}
		if f.rows != bi.rows || f.rows != inlj.rows || (!onTop.dnf && onTop.err == nil && f.rows != onTop.rows) {
			return fmt.Errorf("extra_inlj n=%d: arms disagree (%d/%d/%d/%d)", n, f.rows, bi.rows, inlj.rows, onTop.rows)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), f.String(), bi.String(), inlj.String(), onTop.String(),
			fmt.Sprintf("%d", f.rows),
		})
	}
	printTable(w, []string{"parks", "FUDJ", "Built-in", "INLJ (R-tree)", "On-top", "results"}, rows)
	fmt.Fprintln(w, "  (INLJ is competitive at laptop scale, but it broadcasts and re-indexes")
	fmt.Fprintln(w, "   the entire indexed side on every partition — per-partition work grows")
	fmt.Fprintln(w, "   with |indexed side| rather than |indexed side|/P, which is the §I")
	fmt.Fprintln(w, "   scalability caveat the partition-based joins avoid)")
	return nil
}

func runExtraDistance(cfg Config, w io.Writer) error {
	sizes := []int{cfg.scaled(2000), cfg.scaled(4000), cfg.scaled(8000)}
	dead := false
	var rows [][]string
	for _, n := range sizes {
		db, err := fudj.Open(fudj.WithCluster(cfg.Nodes, cfg.Cores))
		if err != nil {
			return err
		}
		if err := fudj.LoadGenerated(db, "wildfires", fudj.GenWildfires(cfg.Seed+10, n)); err != nil {
			return err
		}
		if err := db.InstallLibrary(fudj.DistanceLibrary()); err != nil {
			return err
		}
		if _, err := db.Execute(`CREATE JOIN points_within(a: point, b: point, d: double)
			RETURNS boolean AS "knn.PointsWithin" AT distancejoins`); err != nil {
			return err
		}
		f := timedQuery(db, `SELECT COUNT(*) FROM wildfires a, wildfires b
			WHERE a.year = 2020 AND b.year = 2023 AND points_within(a.location, b.location, 5.0)`)
		if f.err != nil {
			return f.err
		}
		onTop := runResult{dnf: true}
		if !dead {
			onTop = timedQuery(db, `SELECT COUNT(*) FROM wildfires a, wildfires b
				WHERE a.year = 2020 AND b.year = 2023 AND st_distance(a.location, b.location) <= 5.0`)
			if onTop.err != nil {
				return onTop.err
			}
			if !onTop.dnf && onTop.rows != f.rows {
				return fmt.Errorf("extra_distance n=%d: FUDJ %d rows, on-top %d rows", n, f.rows, onTop.rows)
			}
			if cfg.Budget > 0 && onTop.elapsed > cfg.Budget {
				dead = true
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d", n), f.String(), onTop.String(), fmt.Sprintf("%d", f.rows)})
	}
	printTable(w, []string{"points", "FUDJ", "On-top", "results"}, rows)
	return nil
}
