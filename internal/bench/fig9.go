package bench

import (
	"fmt"
	"io"

	"fudj"
)

// Fig. 9: join performance of FUDJ vs built-in vs on-top while the
// record count grows, for all three example joins. The paper's
// headline: spatial FUDJ ~1200x over on-top, text-similarity ~6.5x,
// interval ~2.5x, with FUDJ tracking built-in closely.

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Join performance: FUDJ vs Built-in vs On-top (Fig. 9)",
		Paper: "spatial ~1200x, text-similarity ~6.5x, interval ~2.5x over on-top; FUDJ ≈ built-in",
		Run:   runFig9,
	})
	register(Experiment{ID: "fig9a", Title: "Fig. 9a spatial only", Run: runFig9Spatial})
	register(Experiment{ID: "fig9b", Title: "Fig. 9b interval only", Run: runFig9Interval})
	register(Experiment{ID: "fig9c", Title: "Fig. 9c text-similarity only", Run: runFig9Text})
}

func runFig9(cfg Config, w io.Writer) error {
	if err := runFig9Spatial(cfg, w); err != nil {
		return err
	}
	if err := runFig9Interval(cfg, w); err != nil {
		return err
	}
	return runFig9Text(cfg, w)
}

// arm describes one comparison arm of a figure.
type arm struct {
	name  string
	query func(size int) string
	mode  fudj.JoinMode
}

// sweepSizes runs each arm over growing sizes, marking an arm DNF once
// a run exceeds the budget (the paper's 4000 s cutoff, scaled down).
func sweepSizes(cfg Config, w io.Writer, mkEnv func(size int) (*env, error), sizes []int, sizeLabel string, arms []arm) error {
	header := []string{sizeLabel}
	for _, a := range arms {
		header = append(header, a.name)
	}
	dead := make([]bool, len(arms))
	var rows [][]string
	var rowCounts []int64
	for _, size := range sizes {
		e, err := mkEnv(size)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%d", size)}
		var counts []int64
		for i, a := range arms {
			if dead[i] {
				row = append(row, "DNF")
				counts = append(counts, -1)
				continue
			}
			e.db.MustConfigure(fudj.WithJoinMode(a.mode))
			r := timedQuery(e.db, a.query(size))
			if r.err != nil {
				return fmt.Errorf("%s size %d: %w", a.name, size, r.err)
			}
			if cfg.Budget > 0 && r.elapsed > cfg.Budget {
				dead[i] = true
			}
			row = append(row, r.String())
			counts = append(counts, r.rows)
		}
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ))
		// Sanity: all live arms must agree on the result count.
		var want int64 = -1
		for _, c := range counts {
			if c < 0 {
				continue
			}
			if want == -1 {
				want = c
			} else if c != want {
				return fmt.Errorf("size %d: arms disagree on result count: %v", size, counts)
			}
		}
		rowCounts = append(rowCounts, want)
		rows = append(rows, row)
	}
	for i := range rows {
		rows[i] = append(rows[i], fmt.Sprintf("%d", rowCounts[i]))
	}
	printTable(w, append(header, "results"), rows)
	return nil
}

func runFig9Spatial(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "-- Fig. 9a: spatial join (grid 32x32), wildfires = 2x parks --")
	sizes := []int{cfg.scaled(500), cfg.scaled(1000), cfg.scaled(2000), cfg.scaled(4000)}
	mk := func(size int) (*env, error) { return newEnv(cfg, size, 2*size, 0, 0) }
	q := `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`
	onTop := `SELECT COUNT(*) FROM parks p, wildfires w WHERE st_intersects(p.boundary, w.location)`
	return sweepSizes(cfg, w, mk, sizes, "parks", []arm{
		{"FUDJ", func(int) string { return q }, fudj.ModeFUDJ},
		{"Built-in", func(int) string { return q }, fudj.ModeBuiltin},
		{"On-top", func(int) string { return onTop }, fudj.ModeFUDJ},
	})
}

func runFig9Interval(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "-- Fig. 9b: interval join (1000 granules), vendor 1 vs vendor 2 --")
	sizes := []int{cfg.scaled(1000), cfg.scaled(2000), cfg.scaled(4000), cfg.scaled(8000)}
	mk := func(size int) (*env, error) { return newEnv(cfg, 0, 0, size, 0) }
	q := `SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`
	onTop := `SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		AND interval_overlapping(n1.ride_interval, n2.ride_interval)`
	return sweepSizes(cfg, w, mk, sizes, "rides", []arm{
		{"FUDJ", func(int) string { return q }, fudj.ModeFUDJ},
		{"Built-in", func(int) string { return q }, fudj.ModeBuiltin},
		{"On-top", func(int) string { return onTop }, fudj.ModeFUDJ},
	})
}

func runFig9Text(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "-- Fig. 9c: text-similarity join (t=0.9), 5-star vs 4-star reviews --")
	sizes := []int{cfg.scaled(1000), cfg.scaled(2000), cfg.scaled(4000), cfg.scaled(8000)}
	mk := func(size int) (*env, error) { return newEnv(cfg, 0, 0, 0, size) }
	q := `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
		WHERE r1.overall = 5 AND r2.overall = 4
		AND text_similarity_join(r1.review, r2.review, 0.9)`
	onTop := `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
		WHERE r1.overall = 5 AND r2.overall = 4
		AND similarity_jaccard(word_tokens(r1.review), word_tokens(r2.review)) >= 0.9`
	return sweepSizes(cfg, w, mk, sizes, "reviews", []arm{
		{"FUDJ", func(int) string { return q }, fudj.ModeFUDJ},
		{"Built-in", func(int) string { return q }, fudj.ModeBuiltin},
		{"On-top", func(int) string { return onTop }, fudj.ModeFUDJ},
	})
}
