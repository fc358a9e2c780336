package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"fudj/internal/serve"
	"fudj/internal/serve/client"
)

// The serve-ha experiment prices client-side failover: the spatial
// join, closed-loop through a two-instance fudjd deployment behind a
// failover client, with the serving instance drained and restarted out
// from under the client each round. Steady-state latency is the
// baseline; the "failover" arm is the latency of the first query after
// a drain — the price of the shed round trip, the peer's readiness
// probe, session re-establishment, and re-keying, all on one query.
// The contract under measurement is the §13.5 one: zero client-visible
// failures, however many instances die.

const serveHASQL = `SELECT COUNT(*) FROM parks p, wildfires w
	WHERE spatial_join(p.boundary, w.location, 16)`

// haBenchInstance is one restartable loopback fudjd for the
// experiment: same address across generations, fresh engine per
// generation (drain is permanent), deterministic data (same cfg).
type haBenchInstance struct {
	cfg  Config
	name string
	addr string
	gen  int
	srv  *serve.Server
}

func (h *haBenchInstance) start() error {
	db, err := newEnv(h.cfg, h.cfg.scaled(60), h.cfg.scaled(150), 8, 8)
	if err != nil {
		return err
	}
	h.gen++
	srv, err := serve.New(serve.Config{
		DB:         db,
		InstanceID: fmt.Sprintf("%s-g%d", h.name, h.gen),
		RetryAfter: 20 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	addr := h.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var lis net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.addr = lis.Addr().String()
	h.srv = srv
	go srv.Serve(lis)
	return nil
}

func (h *haBenchInstance) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return h.srv.Drain(ctx)
}

func (h *haBenchInstance) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return h.srv.Shutdown(ctx)
}

func runServeHAExperiment(cfg Config, w io.Writer) error {
	instances := []*haBenchInstance{
		{cfg: cfg, name: "a"},
		{cfg: cfg, name: "b"},
	}
	for _, h := range instances {
		if err := h.start(); err != nil {
			return err
		}
	}
	defer func() {
		for _, h := range instances {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			h.srv.Shutdown(ctx)
			cancel()
		}
	}()
	cli, err := client.New(client.Config{
		BaseURL:         instances[0].addr + "," + instances[1].addr,
		Session:         "bench-ha",
		QueryPrefix:     "ha",
		Seed:            cfg.Seed,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		BreakerCooldown: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cli.Close()

	ctx := context.Background()
	query := func() (*client.Result, error) { return cli.Query(ctx, serveHASQL) }
	const warmups, steadyIters, rounds = 3, 20, 4
	for i := 0; i < warmups; i++ {
		if _, err := query(); err != nil {
			return fmt.Errorf("serve-ha warmup: %w", err)
		}
	}
	steady, err := measure(steadyIters, func() error { _, err := query(); return err })
	if err != nil {
		return fmt.Errorf("serve-ha steady: %w", err)
	}

	// Each round: find the instance currently serving this client, drain
	// it, and time the very next query — the full failover, end to end.
	// Then restart the drained instance so the next round has a peer to
	// fail over to (and its breaker a chance to close).
	byAddr := make(map[string]*haBenchInstance, len(instances))
	for _, h := range instances {
		byAddr["http://"+h.addr] = h
	}
	failover := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		res, err := query()
		if err != nil {
			return fmt.Errorf("serve-ha round %d: %w", r, err)
		}
		serving := byAddr[res.Endpoint]
		if serving == nil {
			return fmt.Errorf("serve-ha round %d: unknown endpoint %q", r, res.Endpoint)
		}
		// Drain first, shut down after the timed query: the failover arm
		// measures the announced path (shed envelope, immediate peer
		// failover), the way a rolling restart actually presents — the
		// listener closes only once traffic has moved off.
		if err := serving.drain(); err != nil {
			return fmt.Errorf("serve-ha round %d drain: %w", r, err)
		}
		t0 := time.Now()
		if _, err := query(); err != nil {
			return fmt.Errorf("serve-ha round %d: query lost across a single-instance drain: %w", r, err)
		}
		failover = append(failover, time.Since(t0))
		if err := serving.shutdown(); err != nil {
			return fmt.Errorf("serve-ha round %d shutdown: %w", r, err)
		}
		if err := serving.start(); err != nil {
			return fmt.Errorf("serve-ha round %d restart: %w", r, err)
		}
	}
	sort.Slice(failover, func(i, j int) bool { return failover[i] < failover[j] })

	st := cli.Stats()
	fmt.Fprintf(w, "client-side failover, closed loop, %d steady iters then %d drain/restart rounds, two loopback instances:\n",
		steadyIters, rounds)
	printTable(w, []string{"arm", "p50", "p95", "max"}, [][]string{
		{"steady", fmtDur(quantile(steady, 0.5)), fmtDur(quantile(steady, 0.95)), fmtDur(steady[len(steady)-1])},
		{"failover", fmtDur(quantile(failover, 0.5)), fmtDur(quantile(failover, 0.95)), fmtDur(failover[len(failover)-1])},
	})
	fmt.Fprintf(w, "  failovers=%d drain_failovers=%d rekeys=%d breaker_opens=%d breaker_closes=%d probes=%d journal_replays=%d\n",
		st.Failovers, st.DrainFailovers, st.Rekeys, st.BreakerOpens, st.BreakerCloses, st.Probes, st.JournalReplays)

	if cfg.JSONOut != "" {
		if err := writeServeHAJSON(cfg, steady, failover, st); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", cfg.JSONOut)
	}
	// Regression canaries: the experiment is the contract, not a race.
	if st.DrainFailovers == 0 {
		return fmt.Errorf("serve-ha: no drain failover recorded across %d drains", rounds)
	}
	if st.Rekeys == 0 {
		return fmt.Errorf("serve-ha: no re-key recorded across %d instance changes", rounds)
	}
	return nil
}

// metric is one entry of a results/BENCH_*.json metrics array:
// BENCHMARK.json's name, unit and better, the reading, and the runs it
// was read from where there are several.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

// writeServeHAJSON records the measurement as results/BENCH_*.json do:
// context strings, then every number in the metrics array.
func writeServeHAJSON(cfg Config, steady, failover []time.Duration, st client.Stats) error {
	p50 := func(name string, ds []time.Duration) metric {
		m := metric{name, "ms", "lower", float64(quantile(ds, 0.5)) / 1e6, nil}
		for _, d := range ds {
			m.Samples = append(m.Samples, float64(d)/1e6)
		}
		return m
	}
	buf, err := json.MarshalIndent(struct {
		Benchmark string   `json:"benchmark"`
		Shape     string   `json:"shape"`
		Cluster   string   `json:"cluster"`
		Command   string   `json:"command"`
		CPU       string   `json:"cpu"`
		Guard     string   `json:"guard"`
		Metrics   []metric `json:"metrics"`
	}{
		"bench experiment 'serve-ha': client-side failover across a rolling restart",
		"the spatial example join, closed loop through a failover client over two loopback fudjd instances; the steady arm queries a healthy pair, the failover arm times the first query after the serving instance drains — shed detection, peer readiness probe, session re-establishment, and re-key included",
		fmt.Sprintf("%d nodes, %d cores per node", cfg.Nodes, cfg.Cores),
		"make bench-serve-ha",
		cpuModel(),
		"every query must succeed — a drain of the serving instance is never client-visible as a failure; the experiment itself fails if no drain failover or re-key was recorded, so the failover arm cannot silently measure a healthy pair",
		[]metric{
			p50("serve_ha.steady_p50_ms", steady),
			p50("serve_ha.failover_p50_ms", failover),
			{"client.failovers", "count", "lower", float64(st.Failovers), nil},
			{"client.drain_failovers", "count", "higher", float64(st.DrainFailovers), nil},
			{"client.rekeys", "count", "higher", float64(st.Rekeys), nil},
			{"client.breaker_opens", "count", "lower", float64(st.BreakerOpens), nil},
			{"client.breaker_closes", "count", "higher", float64(st.BreakerCloses), nil},
			{"client.probes", "count", "lower", float64(st.Probes), nil},
			{"client.journal_replays", "count", "lower", float64(st.JournalReplays), nil},
		},
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.JSONOut, append(buf, '\n'), 0o644)
}

func init() {
	register(Experiment{
		ID:    "serve-ha",
		Title: "Extra: client-side failover latency across a rolling restart of fudjd instances",
		Paper: "not in the paper; multi-instance serving experiment — closed-loop latency of the spatial join through a failover client, steady-state vs the first query after the serving instance drains",
		Run:   runServeHAExperiment,
	})
}

// cpuModel reports the processor model for the artifact, best-effort.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return fmt.Sprintf("unknown (%s/%s, %d cpus)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}

// quantile returns the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// measure runs f n times and returns sorted per-call latencies.
func measure(n int, f func() error) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, nil
}
