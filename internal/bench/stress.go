package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
)

// The stress experiment drives the admission-controlled scheduler the
// way the paper's serving scenario would: an open-loop arrival process
// (arrivals do not wait for completions) of mixed spatial / interval /
// text-similarity joins, deliberately offered faster than the cluster
// can absorb, against a small shared memory pool. It checks the
// scheduler's three contracts under overload:
//
//   - no overshoot: the peak sum of outstanding memory leases never
//     exceeds the configured pool;
//   - no interference: every query that completes returns exactly its
//     serial-baseline multiset, even while neighbours are shed, time
//     out, or die to a panicking UDF;
//   - bounded shedding: overflow is rejected with a retryable
//     *fudj.AdmissionError instead of queueing without bound or
//     crashing, and a final Drain leaves nothing running.

// StressConfig shapes one stress run.
type StressConfig struct {
	Queries       int           // total arrivals (completions not awaited between launches)
	MaxConcurrent int           // admission slots
	QueueDepth    int           // bounded admission queue
	Pool          int64         // shared memory pool (bytes)
	Budget        int64         // per-query memory request (lease ask)
	Arrival       time.Duration // mean inter-arrival gap of the open loop
	Timeout       time.Duration // per-query deadline; 0 = none
	PoisonEvery   int           // every Nth arrival runs the panicking UDF; 0 = never
	Faults        bool          // arm probabilistic crash injection during the storm
	Net           bool          // drive the storm through a real fudjd over loopback TCP
	Seed          int64
	Nodes, Cores  int
	Scale         float64 // dataset scale multiplier
}

// DefaultStressConfig returns a laptop-scale overload: ~240 arrivals
// against 8 slots and a pool sized so concurrent leases must be
// reduced below their ask.
func DefaultStressConfig() StressConfig {
	return StressConfig{
		Queries:       240,
		MaxConcurrent: 8,
		QueueDepth:    24,
		Pool:          16 << 20,
		Budget:        4 << 20,
		Arrival:       1500 * time.Microsecond,
		PoisonEvery:   11,
		Seed:          17,
		Nodes:         2,
		Cores:         2,
		Scale:         1,
	}
}

// StressReport is the outcome of one stress run. Every arrival lands
// in exactly one bucket: Completed + Shed + Poisoned + TimedOut +
// Failed == Queries.
type StressReport struct {
	Queries   int
	Completed int // finished and multiset-verified against serial baseline
	Shed      int // *fudj.AdmissionError (queue full / pool exhausted)
	Poisoned  int // panicking-UDF queries that failed with *fudj.UDFError
	TimedOut  int // *fudj.TimeoutError
	Failed    int // any other error — always a bug

	Mismatched   int // completed queries whose multiset differed from baseline
	BadShed      int // sheds that were not retryable (and not draining)
	LeasePeak    int64
	Pool         int64
	MaxQueueWait time.Duration
	ShedRate     float64 // Shed / Queries
	Elapsed      time.Duration
	DrainErr     error // non-nil when Drain hit its deadline
	LateShed     bool  // post-drain probe was refused with ReasonDraining
}

// stressClass is one query class in the mix, with its serial-baseline
// multiset hash filled in before the storm starts.
type stressClass struct {
	name string
	sql  string
	base uint64
}

// multisetHash fingerprints a result set order-insensitively: FNV-1a
// per rendered row, combined by wrapping sum, length folded in so the
// empty set is distinguished.
func multisetHash(rows []fudj.Record) uint64 {
	var sum uint64
	for _, r := range rows {
		h := fnv.New64a()
		io.WriteString(h, r.String())
		sum += h.Sum64()
	}
	return sum ^ (uint64(len(rows)) * 0x9e3779b97f4a7c15)
}

// newPoisonJoin is an interval-shaped FUDJ whose VERIFY always panics:
// the deterministic "bad UDF" arm of the interference check. The
// engine's panic guard converts it into a *fudj.UDFError; the query
// fails, its neighbours must not notice.
func newPoisonJoin() fudj.Join {
	type summary struct{ N int64 }
	type plan struct{ Buckets int64 }
	return fudj.Wrap(fudj.Spec[fudj.Interval, fudj.Interval, summary, plan]{
		Name:         "poison_overlap",
		Params:       1,
		NewSummary:   func() summary { return summary{} },
		LocalAggLeft: func(_ fudj.Interval, s summary) summary { s.N++; return s },
		GlobalAgg:    func(a, b summary) summary { return summary{N: a.N + b.N} },
		Divide:       func(_, _ summary, _ []any) (plan, error) { return plan{Buckets: 1}, nil },
		AssignLeft: func(_ fudj.Interval, _ plan, dst []fudj.BucketID) []fudj.BucketID {
			return append(dst, 0)
		},
		Verify: func(_ fudj.BucketID, _ fudj.Interval, _ fudj.BucketID, _ fudj.Interval, _ plan) bool {
			panic("poison_overlap: injected UDF failure")
		},
	})
}

const poisonSQL = `SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
	WHERE n1.vendor = 1 AND n2.vendor = 2
	AND poison_overlap(n1.ride_interval, n2.ride_interval, 100)`

// stressEnv builds the stress database: standard datasets and joins
// plus the poison library, under the configured admission limits.
func stressEnv(cfg StressConfig) (*fudj.DB, []stressClass, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	base := Config{Scale: scale, Nodes: cfg.Nodes, Cores: cfg.Cores, Seed: cfg.Seed}
	db, err := newEnv(base, base.scaled(60), base.scaled(150), base.scaled(150), base.scaled(100),
		fudj.WithConcurrencyLimit(cfg.MaxConcurrent),
		fudj.WithQueueDepth(cfg.QueueDepth),
		fudj.WithMemoryPool(cfg.Pool),
		fudj.WithMemoryBudget(cfg.Budget),
	)
	if err != nil {
		return nil, nil, err
	}
	lib := fudj.NewLibrary("poisonlib")
	lib.MustRegister("poison.Overlap", newPoisonJoin)
	if err := db.InstallLibrary(lib); err != nil {
		return nil, nil, err
	}
	if _, err := db.Execute(`CREATE JOIN poison_overlap(a: interval, b: interval, n: int)
		RETURNS boolean AS "poison.Overlap" AT poisonlib`); err != nil {
		return nil, nil, err
	}

	classes := []stressClass{
		{name: "spatial", sql: `SELECT COUNT(*) FROM parks p, wildfires w
			WHERE spatial_join(p.boundary, w.location, 16)`},
		{name: "interval", sql: `SELECT n1.id, n2.id FROM nyctaxi n1, nyctaxi n2
			WHERE n1.vendor = 1 AND n2.vendor = 2
			AND overlapping_interval(n1.ride_interval, n2.ride_interval, 100)`},
		{name: "textsim", sql: `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND text_similarity_join(r1.review, r2.review, 0.8)`},
	}
	// Serial baselines: with the queue idle each runs alone, so the
	// hash is the ground-truth multiset for the class.
	for i := range classes {
		res, err := db.Execute(classes[i].sql)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline %s: %w", classes[i].name, err)
		}
		classes[i].base = multisetHash(res.Rows)
	}
	return db, classes, nil
}

// RunStress executes one open-loop storm and returns the report. The
// run itself never fails on scheduler behaviour — invariant violations
// are counted in the report (Mismatched, BadShed, Failed, overshoot)
// so callers decide how strict to be; only setup errors return err.
func RunStress(cfg StressConfig, w io.Writer) (*StressReport, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 1
	}
	db, classes, err := stressEnv(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults {
		// A light probabilistic crash storm on top: tasks die and the
		// retry machinery re-runs them mid-contention.
		if err := db.Configure(fudj.WithFaults(&fudj.FaultConfig{Seed: cfg.Seed + 99, CrashProb: 0.03})); err != nil {
			return nil, err
		}
	}

	// With Net set, the storm crosses a real loopback TCP socket into
	// an in-process fudjd: every query pays frame encode/decode, CRC,
	// and HTTP round-trip cost, and drain semantics are the server's.
	// MaxAttempts stays 1 so the open-loop arrival process is preserved
	// — a shed arrival is a shed arrival, not a client-side retry loop.
	var (
		srv *serve.Server
		cli *client.Client
	)
	if cfg.Net {
		srv, err = serve.New(serve.Config{DB: db})
		if err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(lis)
		cli, err = client.New(client.Config{
			BaseURL:     "http://" + lis.Addr().String(),
			Session:     "stress",
			QueryPrefix: "st",
			MaxAttempts: 1,
			Seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			cli.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
		}()
	}

	// runQuery executes one arrival in-process or over the wire and
	// normalizes the answer to (rows, queue wait, error).
	runQuery := func(sql string, prio fudj.Priority, timeout time.Duration) ([]fudj.Record, time.Duration, error) {
		if cli != nil {
			ctx := context.Background()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			res, err := cli.Query(ctx, sql, client.WithPriority(prio))
			if err != nil {
				return nil, 0, err
			}
			return res.Rows, res.Sched.QueueWait, nil
		}
		opts := []fudj.ExecOption{fudj.WithPriority(prio)}
		if timeout > 0 {
			opts = append(opts, fudj.WithQueryTimeout(timeout))
		}
		res, err := db.Execute(sql, opts...)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Sched.QueueWait, nil
	}

	// Pre-generate the whole arrival schedule deterministically from
	// the seed before launching anything.
	type arrival struct {
		class int // index into classes, or -1 for poison
		prio  fudj.Priority
		gap   time.Duration
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	prios := []fudj.Priority{fudj.PriorityLow, fudj.PriorityNormal, fudj.PriorityNormal, fudj.PriorityHigh}
	schedule := make([]arrival, cfg.Queries)
	for i := range schedule {
		a := arrival{
			class: rng.Intn(len(classes)),
			prio:  prios[rng.Intn(len(prios))],
		}
		if cfg.Arrival > 0 {
			a.gap = time.Duration(rng.Int63n(int64(2*cfg.Arrival) + 1))
		}
		if cfg.PoisonEvery > 0 && (i+1)%cfg.PoisonEvery == 0 {
			a.class = -1
		}
		schedule[i] = a
	}

	rep := &StressReport{Queries: cfg.Queries, Pool: cfg.Pool}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range schedule {
		time.Sleep(a.gap) // open loop: launch regardless of completions
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			sql, base := poisonSQL, uint64(0)
			if a.class >= 0 {
				sql, base = classes[a.class].sql, classes[a.class].base
			}
			rows, queueWait, err := runQuery(sql, a.prio, cfg.Timeout)

			mu.Lock()
			defer mu.Unlock()
			var adm *fudj.AdmissionError
			var udf *fudj.UDFError
			var tmo *fudj.TimeoutError
			switch {
			case errors.As(err, &adm):
				rep.Shed++
				if !fudj.IsRetryable(err) && adm.Reason != fudj.ReasonDraining {
					rep.BadShed++
				}
			case errors.As(err, &tmo),
				cfg.Timeout > 0 && errors.Is(err, context.DeadlineExceeded):
				// Over the wire the client's own deadline can fire before
				// the server's structured TimeoutError makes it back.
				rep.TimedOut++
			case a.class < 0:
				// Poison queries must die to the UDF panic (unless they
				// were shed or timed out first, handled above).
				if errors.As(err, &udf) {
					rep.Poisoned++
				} else {
					rep.Failed++
				}
			case err != nil:
				rep.Failed++
			default:
				rep.Completed++
				if multisetHash(rows) != base {
					rep.Mismatched++
				}
				if queueWait > rep.MaxQueueWait {
					rep.MaxQueueWait = queueWait
				}
			}
		}(a)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.LeasePeak = db.SchedulerStats().LeasePeak
	rep.ShedRate = float64(rep.Shed) / float64(rep.Queries)

	// Graceful drain with a generous deadline, then probe that late
	// arrivals are refused for good. In net mode both go through the
	// daemon: Drain gates the HTTP front door before draining the
	// engine, and the probe must see the drain refusal over the wire.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var lateErr error
	if srv != nil {
		rep.DrainErr = srv.Drain(dctx)
		_, lateErr = cli.Query(context.Background(), classes[0].sql)
	} else {
		rep.DrainErr = db.Drain(dctx)
		_, lateErr = db.Execute(classes[0].sql)
	}
	var adm *fudj.AdmissionError
	rep.LateShed = errors.As(lateErr, &adm) && adm.Reason == fudj.ReasonDraining

	if w != nil {
		printStress(w, cfg, rep)
	}
	return rep, nil
}

func printStress(w io.Writer, cfg StressConfig, rep *StressReport) {
	transport := "in-process"
	if cfg.Net {
		transport = "loopback TCP via fudjd"
	}
	fmt.Fprintf(w, "open-loop storm (%s): %d arrivals, %d slots, queue %d, pool %s, ask %s\n",
		transport, rep.Queries, cfg.MaxConcurrent, cfg.QueueDepth, fmtBytes(rep.Pool), fmtBytes(cfg.Budget))
	printTable(w, []string{"outcome", "count"}, [][]string{
		{"completed (multiset-verified)", fmt.Sprint(rep.Completed)},
		{"shed (retryable)", fmt.Sprint(rep.Shed)},
		{"poisoned (UDF panic)", fmt.Sprint(rep.Poisoned)},
		{"timed out", fmt.Sprint(rep.TimedOut)},
		{"failed (unexpected)", fmt.Sprint(rep.Failed)},
		{"multiset mismatches", fmt.Sprint(rep.Mismatched)},
	})
	overshoot := "no"
	if rep.LeasePeak > rep.Pool {
		overshoot = "YES (bug)"
	}
	fmt.Fprintf(w, "  lease peak %s / pool %s — overshoot: %s\n",
		fmtBytes(rep.LeasePeak), fmtBytes(rep.Pool), overshoot)
	fmt.Fprintf(w, "  shed rate %.0f%%, max queue wait %s, elapsed %s\n",
		100*rep.ShedRate, fmtDur(rep.MaxQueueWait), fmtDur(rep.Elapsed))
	if rep.DrainErr != nil {
		fmt.Fprintf(w, "  drain: FORCED (%v)\n", rep.DrainErr)
	} else {
		fmt.Fprintf(w, "  drain: clean; late arrival refused: %v\n", rep.LateShed)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func init() {
	register(Experiment{
		ID:    "stress",
		Title: "Extra: admission-controlled scheduler under open-loop overload",
		Paper: "not in the paper; robustness experiment — mixed joins offered faster than the cluster absorbs, against a shared memory pool",
		Run:   runStressExperiment,
	})
	register(Experiment{
		ID:    "stress-net",
		Title: "Extra: the same open-loop overload through fudjd over loopback TCP",
		Paper: "not in the paper; serving experiment — every arrival pays frame encode/decode, CRC, and an HTTP round trip, and drain is the daemon's",
		Run: func(cfg Config, w io.Writer) error {
			return runStress(cfg, w, true)
		},
	})
}

func runStressExperiment(cfg Config, w io.Writer) error {
	return runStress(cfg, w, false)
}

func runStress(cfg Config, w io.Writer, overNet bool) error {
	sc := DefaultStressConfig()
	sc.Queries = cfg.scaled(240)
	sc.Nodes, sc.Cores = cfg.Nodes, cfg.Cores
	sc.Seed = cfg.Seed
	sc.Scale = cfg.Scale * 0.5 // per-query work stays small; volume is the point
	sc.Net = overNet
	rep, err := RunStress(sc, w)
	if err != nil {
		return err
	}
	if rep.LeasePeak > rep.Pool || rep.Mismatched > 0 || rep.BadShed > 0 || rep.Failed > 0 {
		return fmt.Errorf("stress invariants violated: peak %d/pool %d, %d mismatched, %d bad sheds, %d failed",
			rep.LeasePeak, rep.Pool, rep.Mismatched, rep.BadShed, rep.Failed)
	}
	return nil
}
