package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
)

// side describes one join input as the layer replays need it: the
// dataset, its key column, and the predicate the planner pushes into
// the scan ("" when none).
type side struct {
	dataset, keyCol, filter string
}

// statement is one SQL statement of a workload together with its two
// independent oracles and the shape of its join.
type statement struct {
	name  string // metric key on served_mix: spatial, textsim, interval
	sql   string
	onTop string // the same predicate as a plain NLJ plan (§VII "on-top")

	lib         func() *fudj.Library
	class       string
	left, right side
	params      []any
}

// workload is one fixed shape the benchmark runs. Sizes are records at
// scale 1; the cluster is always 2 nodes x 2 cores.
type workload struct {
	name    string
	why     string
	sizes   map[string]int // dataset -> records
	opts    []fudj.Option
	stmts   []statement
	clients int  // closed-loop clients, at most nproc = 2
	served  bool // through serve.Server + client.Client over loopback TCP
	bounded bool // writes checkpoint (and possibly spill) files, so each query is leak-checked
}

func spatialStmt(items string, grid int) statement {
	return statement{
		name: "spatial",
		sql: fmt.Sprintf(`SELECT %s FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`,
			items, grid),
		onTop:  fmt.Sprintf(`SELECT %s FROM parks p, wildfires w WHERE st_intersects(p.boundary, w.location)`, items),
		lib:    fudj.SpatialLibrary,
		class:  "pbsm.SpatialJoin",
		left:   side{dataset: "parks", keyCol: "boundary"},
		right:  side{dataset: "wildfires", keyCol: "location"},
		params: []any{int64(grid)},
	}
}

func intervalStmt(items string, granules int) statement {
	return statement{
		name: "interval",
		sql: fmt.Sprintf(`SELECT %s FROM nyctaxi a, nyctaxi b WHERE a.vendor = 1 AND b.vendor = 2 AND overlapping_interval(a.ride_interval, b.ride_interval, %d)`,
			items, granules),
		onTop: fmt.Sprintf(`SELECT %s FROM nyctaxi a, nyctaxi b WHERE a.vendor = 1 AND b.vendor = 2 AND interval_overlapping(a.ride_interval, b.ride_interval)`,
			items),
		lib:    fudj.IntervalLibrary,
		class:  "oip.IntervalJoin",
		left:   side{dataset: "nyctaxi", keyCol: "ride_interval", filter: "vendor = 1"},
		right:  side{dataset: "nyctaxi", keyCol: "ride_interval", filter: "vendor = 2"},
		params: []any{int64(granules)},
	}
}

func textsimStmt(items string) statement {
	return statement{
		name: "textsim",
		sql: fmt.Sprintf(`SELECT %s FROM amazonreview a, amazonreview b WHERE a.overall = 5 AND b.overall = 4 AND text_similarity_join(a.review, b.review, 0.9)`,
			items),
		onTop: fmt.Sprintf(`SELECT %s FROM amazonreview a, amazonreview b WHERE a.overall = 5 AND b.overall = 4 AND similarity_jaccard(word_tokens(a.review), word_tokens(b.review)) >= 0.9`,
			items),
		lib:    fudj.TextSimilarityLibrary,
		class:  "setsimilarity.SetSimilarityJoin",
		left:   side{dataset: "amazonreview", keyCol: "review", filter: "overall = 5"},
		right:  side{dataset: "amazonreview", keyCol: "review", filter: "overall = 4"},
		params: []any{0.9},
	}
}

// workloads is the benchmark's fixed list. The reasons are the ones
// BENCHMARK.json records; README.md has the long form.
var workloads = []workload{
	{
		name:    "spatial_hash",
		why:     "multi-assign PARTITION, the largest shuffle and a hash-path COMBINE with a cheap verify: exchange and record-copy traffic dominate",
		sizes:   map[string]int{"parks": 5000, "wildfires": 10000},
		stmts:   []statement{spatialStmt("COUNT(*)", 32)},
		clients: 1,
	},
	{
		name:    "interval_theta",
		why:     "non-default MATCH, so COMBINE is a theta verify loop and the shuffle is tiny: loads the verify loop, bypasses the exchange",
		sizes:   map[string]int{"nyctaxi": 2000},
		stmts:   []statement{intervalStmt("COUNT(*)", 1000)},
		clients: 1,
	},
	{
		name:    "textsim_summarize",
		why:     "the only join with a large SUMMARIZE state, string columns through the batch codec, pushed-down filters and a projecting output",
		sizes:   map[string]int{"amazonreview": 10000},
		stmts:   []statement{textsimStmt("a.id, b.id")},
		clients: 1,
	},
	{
		name:    "spatial_bounded",
		why:     "spatial_hash under a 12 MiB memory budget with checkpoints: credit-bounded delivery, governed builds and fsynced barriers instead of the default path",
		sizes:   map[string]int{"parks": 5000, "wildfires": 10000},
		opts:    []fudj.Option{fudj.WithMemoryBudget(12 << 20), fudj.WithCheckpoints()},
		stmts:   []statement{spatialStmt("COUNT(*)", 32)},
		clients: 1,
		bounded: true,
	},
	{
		name:  "served_mix",
		why:   "two closed-loop network clients cycling three small joins: parse, plan, admission, HTTP and result framing are a large share, and queries run concurrently",
		sizes: map[string]int{"parks": 200, "wildfires": 400, "nyctaxi": 400, "amazonreview": 400},
		stmts: []statement{
			spatialStmt("p.id, w.id", 16),
			textsimStmt("COUNT(*)"),
			intervalStmt("a.id, b.id", 100),
		},
		clients: 2,
		served:  true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generators maps a dataset name to its generator and seed offset, the
// same offsets internal/bench uses.
var generators = []struct {
	name string
	gen  func(seed int64, n int) *fudj.GeneratedDataset
}{
	{"parks", fudj.GenParks},
	{"wildfires", fudj.GenWildfires},
	{"nyctaxi", fudj.GenNYCTaxi},
	{"amazonreview", fudj.GenAmazonReview},
}

var joinDDL = []string{
	`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
	`CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
	`CREATE JOIN overlapping_interval(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`,
}

// execFunc runs one statement the way the workload's clients do:
// db.Execute in process, client.Query when served.
type execFunc func(sql string) (*fudj.Result, error)

// instance is a set-up workload: the DB the measured queries run on,
// the generated data the replays reuse, and, when served, the server
// and its clients.
type instance struct {
	w    workload
	db   *fudj.DB
	data map[string]*fudj.GeneratedDataset

	srv     *serve.Server
	srvDone chan error
	clients []*client.Client
	execs   []execFunc // one per client

	want []digest // per statement, from the oracle
}

// openDB builds a DB holding the workload's datasets, libraries and
// joins. When data is nil the datasets are generated from the seed.
func openDB(w workload, seed int64, scale float64, data map[string]*fudj.GeneratedDataset, opts ...fudj.Option) (*fudj.DB, map[string]*fudj.GeneratedDataset, error) {
	db, err := fudj.Open(append([]fudj.Option{fudj.WithCluster(2, 2)}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	if data == nil {
		data = make(map[string]*fudj.GeneratedDataset)
		for i, g := range generators {
			if n := w.sizes[g.name]; n > 0 {
				data[g.name] = g.gen(seed+int64(i), max(int(float64(n)*scale), 8))
			}
		}
	}
	for name, ds := range data {
		if err := fudj.LoadGenerated(db, name, ds); err != nil {
			return nil, nil, err
		}
	}
	for _, lib := range []*fudj.Library{fudj.SpatialLibrary(), fudj.TextSimilarityLibrary(), fudj.IntervalLibrary()} {
		if err := db.InstallLibrary(lib); err != nil {
			return nil, nil, err
		}
	}
	for _, ddl := range joinDDL {
		if _, err := db.Execute(ddl); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	return db, data, nil
}

// setup is what setup_s times: open the DB, generate and load the
// datasets, install libraries, CREATE JOIN, and for a served workload
// start the listener and connect the clients.
func setup(w workload, seed int64, scale float64) (*instance, error) {
	db, data, err := openDB(w, seed, scale, nil, w.opts...)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, db: db, data: data}
	if !w.served {
		for i := 0; i < w.clients; i++ {
			in.execs = append(in.execs, func(sql string) (*fudj.Result, error) { return db.Execute(sql) })
		}
		return in, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.srv, err = serve.New(serve.Config{DB: db})
	if err != nil {
		lis.Close()
		return nil, err
	}
	in.srvDone = make(chan error, 1)
	go func() { in.srvDone <- in.srv.Serve(lis) }()
	for i := 0; i < w.clients; i++ {
		c, err := client.New(client.Config{
			BaseURL:     "http://" + lis.Addr().String(),
			Session:     fmt.Sprintf("bench-%d", i),
			MaxAttempts: 1,
			Seed:        int64(i + 1),
		})
		if err != nil {
			in.close()
			return nil, err
		}
		// The first request dials; do it here so it is set-up, not a sample.
		if ok, _, err := c.Ready(context.Background()); err != nil || !ok {
			in.close()
			return nil, fmt.Errorf("client %d: server not ready: %v", i, err)
		}
		in.clients = append(in.clients, c)
		in.execs = append(in.execs, func(sql string) (*fudj.Result, error) {
			res, err := c.Query(context.Background(), sql)
			if err != nil {
				return nil, err
			}
			if res.Attempts != 1 || res.Replayed {
				return nil, fmt.Errorf("served query took %d attempts (replayed=%v)", res.Attempts, res.Replayed)
			}
			return res.Result, nil
		})
	}
	return in, nil
}

// close stops the server and waits for its accept loop to end.
func (in *instance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	if in.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
	if err := <-in.srvDone; err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "benchmark: server:", err)
	}
}

// nljLimit is the largest |L|x|R| (dataset sizes) for which the on-top
// nested-loop plan is run as a second oracle.
const nljLimit = 2_000_000

// oracle computes every statement's expected digest on a separate DB
// by paths that share no join code with the measured one: the
// hand-built operator twin, and where the inputs are small enough the
// plain nested-loop plan. The two must agree with each other.
func (in *instance) oracle() error {
	db, _, err := openDB(in.w, 0, 0, in.data, fudj.WithJoinMode(fudj.ModeBuiltin))
	if err != nil {
		return err
	}
	db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPBSM)
	db.RegisterBuiltinJoin("text_similarity_join", fudj.BuiltinTextSimilarity)
	db.RegisterBuiltinJoin("overlapping_interval", fudj.BuiltinIntervalOIP)
	in.want = in.want[:0]
	for _, st := range in.w.stmts {
		res, err := db.Execute(st.sql)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", st.name, err)
		}
		want := digestOf(res.Rows)
		l, r := len(in.data[st.left.dataset].Records), len(in.data[st.right.dataset].Records)
		if l*r <= nljLimit {
			res, err := db.Execute(st.onTop)
			if err != nil {
				return fmt.Errorf("oracle %s on-top: %w", st.name, err)
			}
			if got := digestOf(res.Rows); got != want {
				return fmt.Errorf("oracle %s: built-in twin %+v and on-top NLJ %+v disagree", st.name, want, got)
			}
		}
		in.want = append(in.want, want)
	}
	return nil
}

// check compares one measured result with the oracle.
func (in *instance) check(stmt int, res *fudj.Result) error {
	if got := digestOf(res.Rows); got != in.want[stmt] {
		return fmt.Errorf("%s/%s: result %+v, oracle %+v", in.w.name, in.w.stmts[stmt].name, got, in.want[stmt])
	}
	return nil
}
