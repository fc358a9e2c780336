// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VII). Each experiment is a
// named runner that builds the synthetic workload, executes the query
// arms being compared (FUDJ / built-in / on-top), and prints the same
// rows or series the paper reports. cmd/benchrunner is its one front end;
// go test runs every experiment once at a tiny scale.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fudj"
)

// Config scales and shapes an experiment run. cmd/benchrunner's flag
// defaults are sized for a laptop; the paper's cluster-scale parameters
// are recovered by raising Scale and the cluster shape.
type Config struct {
	Scale   float64       // record-count multiplier (1.0 = laptop defaults)
	Nodes   int           // simulated cluster nodes
	Cores   int           // cores (worker partitions) per node
	Seed    int64         // RNG seed for data generation
	Budget  time.Duration // per-run wall budget; slower arms are marked DNF
	JSONOut string        // when set, experiments that produce artifacts write JSON here
}

// scaled applies the scale factor to a base record count.
func (c Config) scaled(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 8 {
		n = 8
	}
	return n
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string // e.g. "fig9"
	Title string
	Paper string // what the paper reports, for EXPERIMENTS.md context
	Run   func(cfg Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes one experiment by ID, or every experiment for "all".
func Run(id string, cfg Config, w io.Writer) error {
	if id == "all" {
		for _, e := range Experiments() {
			if err := Run(e.ID, cfg, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range registry {
		if e.ID == id {
			fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
			if e.Paper != "" {
				fmt.Fprintf(w, "paper: %s\n", e.Paper)
			}
			return e.Run(cfg, w)
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return fmt.Errorf("bench: unknown experiment %q (have %s, all)", id, strings.Join(ids, ", "))
}

// env is a database preloaded with the standard datasets and joins.
type env struct {
	db *fudj.DB
}

// newEnv builds the standard experiment environment: the four
// datasets at the configured scale, all three libraries installed,
// joins created, and built-in operators registered. Extra options
// (admission limits, memory pools) are applied after the cluster shape.
func newEnv(cfg Config, parks, fires, rides, reviews int, opts ...fudj.Option) (*env, error) {
	db, err := fudj.Open(append([]fudj.Option{fudj.WithCluster(cfg.Nodes, cfg.Cores)}, opts...)...)
	if err != nil {
		return nil, err
	}
	load := func(name string, ds *fudj.GeneratedDataset) error {
		return fudj.LoadGenerated(db, name, ds)
	}
	if parks > 0 {
		if err := load("parks", fudj.GenParks(cfg.Seed, parks)); err != nil {
			return nil, err
		}
	}
	if fires > 0 {
		if err := load("wildfires", fudj.GenWildfires(cfg.Seed+1, fires)); err != nil {
			return nil, err
		}
	}
	if rides > 0 {
		if err := load("nyctaxi", fudj.GenNYCTaxi(cfg.Seed+2, rides)); err != nil {
			return nil, err
		}
	}
	if reviews > 0 {
		if err := load("amazonreview", fudj.GenAmazonReview(cfg.Seed+3, reviews)); err != nil {
			return nil, err
		}
	}
	for _, lib := range []*fudj.Library{fudj.SpatialLibrary(), fudj.TextSimilarityLibrary(), fudj.IntervalLibrary()} {
		if err := db.InstallLibrary(lib); err != nil {
			return nil, err
		}
	}
	ddl := []string{
		`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		`CREATE JOIN spatial_join_rp(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinReferencePoint" AT spatialjoins`,
		`CREATE JOIN spatial_join_elim(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinElimination" AT spatialjoins`,
		`CREATE JOIN spatial_join_theta(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinTheta" AT spatialjoins`,
		`CREATE JOIN spatial_join_sweep(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinPlaneSweep" AT spatialjoins`,
		`CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		`CREATE JOIN text_similarity_elim(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoinElimination" AT flexiblejoins`,
		`CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
		`CREATE JOIN spatial_join_auto(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoinAuto" AT spatialjoins`,
		`CREATE JOIN overlapping_interval_auto(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoinAuto" AT intervaljoins`,
	}
	for _, stmt := range ddl {
		if _, err := db.Execute(stmt); err != nil {
			return nil, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPBSM)
	db.RegisterBuiltinJoin("text_similarity_join", fudj.BuiltinTextSimilarity)
	db.RegisterBuiltinJoin("overlapping_interval", fudj.BuiltinIntervalOIP)
	return &env{db: db}, nil
}

// runResult is one measured arm.
type runResult struct {
	elapsed  time.Duration
	maxBusy  time.Duration
	rows     int64
	shuffled int64 // records moved across node boundaries
	bytes    int64 // bytes moved across node boundaries
	dnf      bool
	err      error
}

func (r runResult) String() string {
	if r.err != nil {
		return "ERR"
	}
	if r.dnf {
		return "DNF"
	}
	return fmtDur(r.elapsed)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// timedQuery runs a query and measures it; when budget > 0 and the
// result exceeds it, later callers can consult runResult.elapsed to
// decide to mark larger runs DNF.
func timedQuery(db *fudj.DB, sql string) runResult {
	res, err := db.Execute(sql)
	if err != nil {
		return runResult{err: err}
	}
	var count int64
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].Kind() == fudj.KindInt64 {
		count = res.Rows[0][0].Int64()
	} else {
		count = int64(len(res.Rows))
	}
	return runResult{
		elapsed: res.Elapsed, maxBusy: res.Cluster.MaxBusy, rows: count,
		shuffled: res.Cluster.RecordsShuffled, bytes: res.Cluster.BytesShuffled,
	}
}

// modeledTime combines the compute makespan with a modeled network
// transfer time at the given bandwidth — how the run would behave on a
// real cluster where shuffles cost wall time instead of memcpy.
func modeledTime(r runResult, bytesPerSec float64) time.Duration {
	return r.maxBusy + time.Duration(float64(r.bytes)/bytesPerSec*float64(time.Second))
}

// printTable renders a fixed-width table.
func printTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
