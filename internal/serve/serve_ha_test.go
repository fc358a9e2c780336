// Rolling-restart high-availability suite: several real fudjd
// instances on loopback listeners, a failover client in front of them,
// and each instance drained and restarted in turn — under the seeded
// fault-injecting listener — while an open-loop storm runs. The
// acceptance bar (ISSUE 10): zero non-retryable client-visible
// failures, every result multiset-identical to in-process execution,
// ExecCount ≤ 1 per (instance, query-id), breakers that open also
// close again, and an empty TMPDIR afterwards.
package serve_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
	"fudj/internal/shell"
)

const (
	haJoinSQL   = `CREATE JOIN ha_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`
	haIntoSQL   = `SELECT p.id, w.id INTO ha_hits FROM parks p, wildfires w WHERE ha_join(p.boundary, w.location, 8)`
	haSessSQL   = `SELECT h.p_id, h.w_id FROM ha_hits h`
	haDemoEnv   = "Nodes:2 Cores:2 Records:80" // must match haDB below
	haRetryHint = 20 * time.Millisecond
)

// haDB builds the deterministic demo database every instance serves:
// identical datasets and join libraries, so any instance's answer is
// interchangeable with any other's (and with in-process execution).
func haDB(t *testing.T) *fudj.DB {
	t.Helper()
	db, err := shell.Setup(shell.Config{Nodes: 2, Cores: 2, Records: 80, LoadDemo: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// haInstance is one restartable loopback fudjd: drain-restart swaps in
// a fresh database and a fresh instance ID on the SAME address, the
// way a rolling restart replaces a process behind a stable endpoint.
// Past generations' servers are kept (their in-memory session state
// outlives Shutdown) so the suite can sweep ExecCount invariants per
// (instance, query-id) across every generation.
type haInstance struct {
	t     *testing.T
	name  string
	addr  string
	base  string
	chaos *serve.ChaosConfig

	mu   sync.Mutex
	gen  int
	srv  *serve.Server
	past []*serve.Server
}

// startHAInstance boots generation 1 on 127.0.0.1:0.
func startHAInstance(t *testing.T, name string, chaos *serve.ChaosConfig) *haInstance {
	t.Helper()
	h := &haInstance{t: t, name: name, chaos: chaos}
	h.start("127.0.0.1:0")
	h.base = "http://" + h.addr
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.mu.Lock()
		srv := h.srv
		h.mu.Unlock()
		if srv != nil {
			srv.Shutdown(ctx)
		}
	})
	return h
}

// start boots the next generation on addr.
func (h *haInstance) start(addr string) {
	h.t.Helper()
	h.mu.Lock()
	h.gen++
	gen := h.gen
	h.mu.Unlock()
	srv, err := serve.New(serve.Config{
		DB:         haDB(h.t),
		InstanceID: fmt.Sprintf("%s-g%d", h.name, gen),
		RetryAfter: haRetryHint,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	// The address must survive restarts; rebinding can race the old
	// socket teardown, so retry briefly.
	var lis net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	serveLis := lis
	if h.chaos != nil {
		cfg := *h.chaos
		cfg.Seed += int64(gen) // a fresh fault schedule per generation
		serveLis = serve.NewChaosListener(lis, cfg)
	}
	go srv.Serve(serveLis)
	h.mu.Lock()
	h.addr = lis.Addr().String()
	h.srv = srv
	h.mu.Unlock()
}

// drainRestart drains the current generation (readiness flips first,
// in-flight work finishes), shuts it down, sits out a short outage
// window, and boots the next generation on the same address.
func (h *haInstance) drainRestart(outage time.Duration) {
	h.t.Helper()
	h.mu.Lock()
	srv, addr := h.srv, h.addr
	h.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		h.t.Errorf("%s drain: %v", h.name, err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		h.t.Errorf("%s shutdown: %v", h.name, err)
	}
	h.mu.Lock()
	h.past = append(h.past, srv)
	h.mu.Unlock()
	time.Sleep(outage)
	h.start(addr)
}

// stop hard-kills the current generation without draining first:
// clients see connection-level transport errors, not a shed envelope.
// restart boots the next generation on the same address.
func (h *haInstance) stop() {
	h.t.Helper()
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		h.t.Errorf("%s shutdown: %v", h.name, err)
	}
	h.mu.Lock()
	h.past = append(h.past, srv)
	h.mu.Unlock()
}

func (h *haInstance) restart() {
	h.t.Helper()
	h.mu.Lock()
	addr := h.addr
	h.mu.Unlock()
	h.start(addr)
}

// servers lists every generation's server, past and current.
func (h *haInstance) servers() []*serve.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]*serve.Server(nil), h.past...)
	return append(out, h.srv)
}

// assertExecAtMostOnce sweeps every generation of every instance: no
// (instance, query-id) pair may have executed more than once, however
// many times the client retried or re-keyed.
func assertExecAtMostOnce(t *testing.T, session string, instances []*haInstance) {
	t.Helper()
	for _, h := range instances {
		for gi, srv := range h.servers() {
			for qid, n := range srv.ExecCounts(session) {
				if n > 1 {
					t.Errorf("%s gen %d: query %s executed %d times", h.name, gi+1, qid, n)
				}
			}
		}
	}
}

// TestServeHAFailoverOnDrain is the deterministic core of the tentpole
// contract: a session (including its DDL) survives its server. One
// query lands on some instance, that instance drains, and the next
// query — same client, same session — succeeds on a peer with no
// client-visible error, after the client replays the session journal.
func TestServeHAFailoverOnDrain(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	a := startHAInstance(t, "a", nil)
	b := startHAInstance(t, "b", nil)

	p, err := client.New(client.Config{
		BaseURL:         a.base + "," + b.base,
		Session:         "ha",
		QueryPrefix:     "fo",
		Seed:            11,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		BreakerCooldown: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx := context.Background()
	// Establish session state: a join definition and a materialized
	// dataset, then a query that needs both.
	for _, sql := range []string{haJoinSQL, haIntoSQL} {
		if _, err := p.Query(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	before, err := p.Query(ctx, haSessSQL)
	if err != nil {
		t.Fatal(err)
	}
	if before.Instance == "" || before.Endpoint == "" {
		t.Fatalf("result missing provenance: instance=%q endpoint=%q", before.Instance, before.Endpoint)
	}

	// Drain whichever instance the client is stuck to.
	serving := a
	if before.Endpoint == b.base {
		serving = b
	}
	drainCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := serving.srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	// Same logical session, next query: must succeed on the peer with
	// no client-visible error, against replayed session DDL.
	after, err := p.Query(ctx, haSessSQL)
	if err != nil {
		t.Fatalf("query after drain failed through failover: %v", err)
	}
	if after.Instance == before.Instance {
		t.Fatalf("query after drain answered by the drained instance %s", after.Instance)
	}
	if !sameMultiset(rowKeys(before.Result), rowKeys(after.Result)) {
		t.Fatal("failover changed the result")
	}
	st := p.Stats()
	if st.DrainFailovers == 0 {
		t.Fatalf("no drain failover recorded: %+v", st)
	}
	if st.JournalReplays < 2 {
		t.Fatalf("session journal (%d replays) was not re-established on the peer", st.JournalReplays)
	}
	if st.Rekeys == 0 {
		t.Fatal("failover did not re-key onto the new instance")
	}
	assertExecAtMostOnce(t, "ha", []*haInstance{a, b})
}

// TestServeHAInstanceMismatchRekeys: a server replaced in place (same
// address, new instance ID, fresh state) is detected by the
// expect-instance handshake, not by luck: the client re-keys, replays
// its journal, and the query succeeds with no client-visible error.
func TestServeHAInstanceMismatchRekeys(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	a := startHAInstance(t, "solo", nil)
	p, err := client.New(client.Config{
		BaseURL:         a.base,
		Session:         "ha",
		QueryPrefix:     "mm",
		Seed:            5,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx := context.Background()
	if _, err := p.Query(ctx, haJoinSQL); err != nil {
		t.Fatal(err)
	}
	first, err := p.Query(ctx, demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}

	// Replace the process behind the address.
	a.drainRestart(10 * time.Millisecond)

	second, err := p.Query(ctx, demoJoinSQL)
	if err != nil {
		t.Fatalf("query against the restarted instance failed: %v", err)
	}
	if second.Instance == first.Instance {
		t.Fatal("restart did not change the instance ID")
	}
	if !strings.HasPrefix(second.Instance, "solo-g2") {
		t.Fatalf("unexpected successor instance %q", second.Instance)
	}
	if !sameMultiset(rowKeys(first.Result), rowKeys(second.Result)) {
		t.Fatal("restart changed the result")
	}
	st := p.Stats()
	if st.Rekeys == 0 {
		t.Fatal("no re-key recorded across the restart")
	}
	if st.JournalReplays == 0 {
		t.Fatal("session DDL was not replayed onto the successor")
	}
	// The join definition really exists on the successor.
	_, joins, err := p.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range joins {
		found = found || j == "ha_join"
	}
	if !found {
		t.Fatalf("ha_join missing from successor catalog %v", joins)
	}
	assertExecAtMostOnce(t, "ha", []*haInstance{a})
}

// TestServeHASingleServerSessionSurvivesRestart: a client of one
// server is the one-endpoint case of failover, so its session outlives
// a restart of that server: the mismatch refusal re-keys, the journal
// replays the session DDL, and the query that needs it succeeds.
func TestServeHASingleServerSessionSurvivesRestart(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	a := startHAInstance(t, "single", nil)
	c, err := client.New(client.Config{
		BaseURL:     a.base,
		Session:     "ha",
		QueryPrefix: "ss",
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	for _, sql := range []string{haJoinSQL, haIntoSQL} {
		if _, err := c.Query(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	before, err := c.Query(ctx, haSessSQL)
	if err != nil {
		t.Fatal(err)
	}
	a.drainRestart(10 * time.Millisecond)
	after, err := c.Query(ctx, haSessSQL)
	if err != nil {
		t.Fatalf("session did not survive the restart: %v", err)
	}
	if after.Instance != "single-g2" {
		t.Fatalf("answered by %q, want the restarted instance single-g2", after.Instance)
	}
	if !sameMultiset(rowKeys(before.Result), rowKeys(after.Result)) {
		t.Fatal("restart changed the result")
	}
	if st := c.Stats(); st.Rekeys == 0 || st.JournalReplays != 2 {
		t.Fatalf("stats %+v, want a re-key and two journal replays", st)
	}
	assertExecAtMostOnce(t, "ha", []*haInstance{a})
}

// TestServeHAReadinessProbes: /v1/health stays 200 through a drain
// while /v1/ready flips to 503 the moment the drain starts, and every
// response names the instance.
func TestServeHAReadinessProbes(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	a := startHAInstance(t, "probe", nil)
	c, err := client.New(client.Config{BaseURL: a.base})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	ready, inst, err := c.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("fresh instance not ready: %v %v", ready, err)
	}
	if inst != "probe-g1" {
		t.Fatalf("readiness reported instance %q", inst)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := a.srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	// Readiness flips; liveness (and the instance header) hold. The
	// listener is still open — only Shutdown closes it.
	ready, inst, err = c.Ready(ctx)
	if err != nil {
		t.Fatalf("readiness unreachable during drain: %v", err)
	}
	if ready || inst != "probe-g1" {
		t.Fatalf("draining instance reported ready=%v instance=%q", ready, inst)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal("metrics unreachable during drain:", err)
	}
	if !snap.Draining || snap.Instance != "probe-g1" {
		t.Fatalf("metrics snapshot %+v", snap)
	}
}

// TestServeHARollingRestart is the acceptance chaos suite: an
// open-loop storm against three instances behind a failover client,
// every instance drained and restarted in turn under the seeded
// fault-injecting listener.
func TestServeHARollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling-restart chaos is not -short")
	}
	t.Setenv("TMPDIR", t.TempDir())
	chaos := &serve.ChaosConfig{
		Seed:        1031,
		ResetProb:   0.02,
		CorruptProb: 0.02,
		StallProb:   0.03,
		Stall:       2 * time.Millisecond,
	}
	instances := []*haInstance{
		startHAInstance(t, "n1", chaos),
		startHAInstance(t, "n2", chaos),
		startHAInstance(t, "n3", chaos),
	}
	endpoints := make([]string, len(instances))
	for i, h := range instances {
		endpoints[i] = h.base
	}
	p, err := client.New(client.Config{
		BaseURL:         strings.Join(endpoints, ","),
		Session:         "ha",
		QueryPrefix:     "storm",
		Seed:            47,
		MaxAttempts:     60,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		AttemptTimeout:  2 * time.Second,
		BreakerCooldown: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// In-process reference for multiset identity.
	ref := haDB(t)
	wantDemo, err := ref.Execute(demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantDemoKeys := rowKeys(wantDemo)

	// Session DDL up front, so every restarted instance must be
	// re-established from the journal mid-storm.
	ctx := context.Background()
	for _, sql := range []string{haJoinSQL, haIntoSQL} {
		if _, err := p.Query(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	wantSess, err := p.Query(ctx, haSessSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantSessKeys := rowKeys(wantSess.Result)

	// The §12 open-loop storm: workers submit as fast as results come
	// back, alternating the plain demo join with the session-dependent
	// query.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
		failures  []error
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql, want := demoJoinSQL, wantDemoKeys
				if (w+i)%3 == 0 {
					sql, want = haSessSQL, wantSessKeys
				}
				res, err := p.Query(ctx, sql)
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Errorf("worker %d query %d: %w", w, i, err))
				} else {
					completed++
					if !sameMultiset(want, rowKeys(res.Result)) {
						failures = append(failures, fmt.Errorf("worker %d query %d: result diverged on %s", w, i, res.Instance))
					}
				}
				mu.Unlock()
			}
		}(w)
	}

	// Roll every instance: drain, outage window, fresh generation.
	waitCompleted := func(n int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			done := completed
			mu.Unlock()
			if done >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("storm stalled")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCompleted(3)
	for _, h := range instances {
		h.drainRestart(50 * time.Millisecond)
		mu.Lock()
		base := completed
		mu.Unlock()
		// Keep the storm running past each restart so recovered
		// instances see traffic again (breakers must close, journals
		// must replay onto the new generation).
		waitCompleted(base + 5)
	}

	// Full-cluster restart: hard-stop every instance at once (no drain,
	// so clients see raw transport errors), sit out a real outage, then
	// bring a fresh generation of each back up — all under the storm.
	// This forces the breaker lifecycle by construction: with every
	// endpoint refusing connections, the failover sweep feeds each
	// breaker its threshold of consecutive failures (opens), and the
	// storm resumes once a half-open probe or a query sent to the first
	// breaker due back reaches a restarted instance (closes). The client
	// must ride through the whole outage on its attempt budget with zero
	// client-visible failures.
	for _, h := range instances {
		h.stop()
	}
	time.Sleep(60 * time.Millisecond)
	for _, h := range instances {
		h.restart()
	}
	mu.Lock()
	base := completed
	mu.Unlock()
	waitCompleted(base + 10)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) > 0 {
		t.Fatalf("%d client-visible failures in the storm (%d completed)", len(failures), completed)
	}
	if completed < 20 {
		t.Fatalf("storm too small to prove anything: %d completed", completed)
	}

	st := p.Stats()
	t.Logf("storm: %d completed; failovers=%d drain=%d rekeys=%d opens=%d closes=%d probes=%d journal=%d",
		completed, st.Failovers, st.DrainFailovers, st.Rekeys,
		st.BreakerOpens, st.BreakerCloses, st.Probes, st.JournalReplays)
	if st.Rekeys == 0 {
		t.Error("no re-keying across three restarts: instance scoping untested")
	}
	if st.BreakerOpens == 0 {
		t.Error("no breaker ever opened across three drain/restarts")
	}
	if st.BreakerOpens > 0 && st.BreakerCloses == 0 {
		t.Error("opened breakers never closed: recovery untested")
	}
	if st.JournalReplays == 0 {
		t.Error("session journal never replayed onto a restarted instance")
	}

	// Exactly-once per (instance, query-id), across every generation of
	// every instance.
	assertExecAtMostOnce(t, "ha", instances)

	// Shut everything down, then: no temp spill files survive.
	for _, h := range instances {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		h.mu.Lock()
		srv := h.srv
		h.mu.Unlock()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		cancel()
	}
	assertTmpEmpty(t)
}
