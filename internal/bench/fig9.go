package bench

import (
	"fmt"
	"io"
	"strings"

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
		Run:   figures(fig9),
	})
	for i, part := range []string{"a spatial", "b interval", "c text-similarity"} {
		register(Experiment{ID: "fig9" + part[:1], Title: "Fig. 9" + part + " only",
			Run: figures(func(c Config) []figure { return fig9(c)[i : i+1] })})
	}
}

// figure is one table of a comparison experiment: a row per sweep
// point, a column per arm, then the derived columns and the result
// count the live arms agreed on.
type figure struct {
	title  string // printed above the table when set
	label  string // header of the point column
	show   string // row-label format of a point; "%d" when empty
	points []int
	// env opens the database the arms run on: once per point when
	// sized (the point is a record count), else once per table.
	env   func(p int) (*fudj.DB, error)
	sized bool
	arms  []arm
	cols  []column
	// countsDiffer declares that the arms return different counts by
	// design (ablation_dedup): agreement is not checked and no results
	// column is printed.
	countsDiffer bool
	note         string // printed below the table when set
}

// arm is one compared variant. query is a fmt template: a verb in it
// takes the sweep point. setup, when set, configures the database
// before the run; the runner restores the defaults after it.
type arm struct {
	name  string
	query string
	setup func(db *fudj.DB, p int)
}

// column is derived from one row's arm results, indexed like the arms;
// an arm marked DNF has a zero result with dnf set.
type column struct {
	name string
	cell func(rs []runResult) string
}

// figures adapts figure constructors to an Experiment's Run.
func figures(mk ...func(Config) []figure) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		for _, m := range mk {
			for _, f := range m(cfg) {
				if err := f.run(cfg, w); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// run executes every arm at every point and prints the table. An arm
// is marked DNF once a run exceeds cfg.Budget (the paper's 4000 s
// cutoff, scaled down), and live arms must agree on the result count.
func (f figure) run(cfg Config, w io.Writer) error {
	if f.title != "" {
		fmt.Fprintln(w, f.title)
	}
	show := f.show
	if show == "" {
		show = "%d"
	}
	header := []string{f.label}
	for _, a := range f.arms {
		header = append(header, a.name)
	}
	for _, c := range f.cols {
		header = append(header, c.name)
	}
	if !f.countsDiffer {
		header = append(header, "results")
	}
	dead := make([]bool, len(f.arms))
	var db *fudj.DB
	var rows [][]string
	for _, p := range f.points {
		point := fmt.Sprintf(show, p)
		if db == nil || f.sized {
			var err error
			if db, err = f.env(p); err != nil {
				return err
			}
		}
		row := []string{point}
		rs := make([]runResult, len(f.arms))
		first := -1 // the first live arm, whose count the others must match
		for i, a := range f.arms {
			if dead[i] {
				rs[i] = runResult{dnf: true}
				row = append(row, rs[i].String())
				continue
			}
			q := a.query
			if strings.Contains(q, "%") {
				q = fmt.Sprintf(q, p)
			}
			if a.setup != nil {
				a.setup(db, p)
			}
			r := timedQuery(db, q)
			db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ), fudj.WithSmartTheta(false),
				fudj.WithCluster(cfg.Nodes, cfg.Cores))
			if r.err != nil {
				return fmt.Errorf("%s at %s %s: %w", a.name, f.label, point, r.err)
			}
			if cfg.Budget > 0 && r.elapsed > cfg.Budget {
				dead[i] = true
			}
			if first < 0 {
				first = i
			} else if !f.countsDiffer && r.rows != rs[first].rows {
				return fmt.Errorf("%s %s: arms disagree: %s returned %d results, %s %d",
					f.label, point, a.name, r.rows, f.arms[first].name, rs[first].rows)
			}
			rs[i] = r
			row = append(row, r.String())
		}
		for _, c := range f.cols {
			row = append(row, c.cell(rs))
		}
		if !f.countsDiffer {
			row = append(row, "DNF")
			if first >= 0 {
				row[len(row)-1] = fmt.Sprint(rs[first].rows)
			}
		}
		rows = append(rows, row)
	}
	printTable(w, header, rows)
	if f.note != "" {
		fmt.Fprintln(w, f.note)
	}
	return nil
}

// sizes scales base record counts into a sweep.
func (c Config) sizes(bases ...int) []int {
	out := make([]int, len(bases))
	for i, b := range bases {
		out[i] = c.scaled(b)
	}
	return out
}

// fixedEnv is a figure env whose datasets do not depend on the point.
func fixedEnv(cfg Config, parks, fires, rides, reviews int) func(int) (*fudj.DB, error) {
	return func(int) (*fudj.DB, error) { return newEnv(cfg, parks, fires, rides, reviews) }
}

// with is an arm setup applying opts.
func with(opts ...fudj.Option) func(*fudj.DB, int) {
	return func(db *fudj.DB, _ int) { db.MustConfigure(opts...) }
}

// builtin is the arm setup that runs each FUDJ predicate on its
// registered built-in operator.
var builtin = with(fudj.WithJoinMode(fudj.ModeBuiltin))

// spatialOperator is an arm setup that runs spatial_join on op.
func spatialOperator(op fudj.BuiltinJoinFunc) func(*fudj.DB, int) {
	return func(db *fudj.DB, p int) {
		db.RegisterBuiltinJoin("spatial_join", op)
		builtin(db, p)
	}
}

// per renders arm i's result, or DNF when the arm did not run.
func per(name string, i int, cell func(runResult) string) column {
	return column{name, func(rs []runResult) string {
		if rs[i].dnf {
			return "DNF"
		}
		return cell(rs[i])
	}}
}

// ratio renders metric(arm num) / metric(arm den) with format.
func ratio(name, format string, num, den int, metric func(runResult) float64) column {
	return column{name, func(rs []runResult) string {
		if rs[num].dnf || rs[den].dnf {
			return "DNF"
		}
		return fmt.Sprintf(format, metric(rs[num])/metric(rs[den]))
	}}
}

// Cells and metrics of the derived columns.
func makespan(r runResult) string   { return fmtDur(r.maxBusy) }
func shuffled(r runResult) string   { return fmt.Sprint(r.shuffled) }
func results(r runResult) string    { return fmt.Sprint(r.rows) }
func wall(r runResult) float64      { return r.elapsed.Seconds() }
func shuffledN(r runResult) float64 { return float64(r.shuffled) }
func resultsN(r runResult) float64  { return float64(r.rows) }

// fig9 is Fig. 9's three tables, one per join, each running the FUDJ
// query, the same query on the built-in operator, and the on-top plan
// of the bare predicate over growing record counts.
func fig9(cfg Config) []figure {
	table := func(title, label string, bases []int, env func(n int) (*fudj.DB, error), q, onTop string) figure {
		return figure{title: title, label: label, points: cfg.sizes(bases...), env: env, sized: true,
			arms: []arm{{"FUDJ", q, nil}, {"Built-in", q, builtin}, {"On-top", onTop, nil}}}
	}
	return []figure{
		table("-- Fig. 9a: spatial join (grid 32x32), wildfires = 2x parks --", "parks", []int{500, 1000, 2000, 4000},
			func(n int) (*fudj.DB, error) { return newEnv(cfg, n, 2*n, 0, 0) },
			`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`,
			`SELECT COUNT(*) FROM parks p, wildfires w WHERE st_intersects(p.boundary, w.location)`),
		table("-- Fig. 9b: interval join (1000 granules), vendor 1 vs vendor 2 --", "rides", []int{1000, 2000, 4000, 8000},
			func(n int) (*fudj.DB, error) { return newEnv(cfg, 0, 0, n, 0) },
			`SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
				WHERE n1.vendor = 1 AND n2.vendor = 2
				AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`,
			`SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
				WHERE n1.vendor = 1 AND n2.vendor = 2
				AND interval_overlapping(n1.ride_interval, n2.ride_interval)`),
		table("-- Fig. 9c: text-similarity join (t=0.9), 5-star vs 4-star reviews --", "reviews", []int{1000, 2000, 4000, 8000},
			func(n int) (*fudj.DB, error) { return newEnv(cfg, 0, 0, 0, n) },
			`SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
				WHERE r1.overall = 5 AND r2.overall = 4
				AND text_similarity_join(r1.review, r2.review, 0.9)`,
			`SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
				WHERE r1.overall = 5 AND r2.overall = 4
				AND similarity_jaccard(word_tokens(r1.review), word_tokens(r2.review)) >= 0.9`),
	}
}
