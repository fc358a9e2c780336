// Integration and network-chaos suite: a real fudjd server on a real
// loopback listener, exercised through the retrying client. External
// test package so it can reuse the shell's demo environment.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
	"fudj/internal/shell"
	"fudj/internal/types"
)

const demoJoinSQL = `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`

// testServer is one loopback fudjd with its database.
type testServer struct {
	db    *fudj.DB
	srv   *serve.Server
	lis   net.Listener
	chaos *serve.ChaosListener
	base  string
}

// startServer boots a demo database and serves it on 127.0.0.1:0,
// optionally through a chaos listener.
func startServer(t *testing.T, cfg serve.Config, chaos *serve.ChaosConfig) *testServer {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	db, err := shell.Setup(shell.Config{Nodes: 2, Cores: 2, Records: 80, LoadDemo: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{db: db, srv: srv, lis: lis, base: "http://" + lis.Addr().String()}
	serveLis := lis
	if chaos != nil {
		ts.chaos = serve.NewChaosListener(lis, *chaos)
		serveLis = ts.chaos
	}
	go srv.Serve(serveLis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

// newClient dials the test server with fast test backoff.
func newClient(t *testing.T, ts *testServer, tweak func(*client.Config)) *client.Client {
	t.Helper()
	cfg := client.Config{
		BaseURL:     ts.base,
		QueryPrefix: "t",
		Seed:        7,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// decodeFrames drains one raw HTTP response's frame stream into a
// result and its trailer, or the decoded error.
func decodeFrames(resp *http.Response) (*fudj.Result, serve.Trailer, error) {
	fr := serve.NewFrameReader(resp.Body)
	res := &fudj.Result{}
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return nil, serve.Trailer{}, err
		}
		switch typ {
		case serve.FrameSchema:
			if res.Schema, err = serve.DecodeSchemaFrame(payload); err != nil {
				return nil, serve.Trailer{}, err
			}
		case serve.FrameBatch:
			recs, err := types.DecodeRecords(payload)
			if err != nil {
				return nil, serve.Trailer{}, err
			}
			res.Rows = append(res.Rows, recs...)
		case serve.FrameError:
			var env serve.Envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return nil, serve.Trailer{}, err
			}
			return nil, serve.Trailer{}, serve.DecodeError(env)
		case serve.FrameTrailer:
			t, err := serve.DecodeTrailerFrame(payload)
			return res, t, err
		}
	}
}

// rowKeys renders a result's rows into a sortable multiset.
func rowKeys(res *fudj.Result) []string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		keys[i] = strings.Join(cells, "|")
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertTmpEmpty fails if any temp files survived.
func assertTmpEmpty(t *testing.T) {
	t.Helper()
	var leaked []string
	filepath.Walk(os.TempDir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("temp files leaked: %v", leaked)
	}
}

func TestServeQueryMatchesInProcess(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)

	want, err := ts.db.Execute(demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(context.Background(), demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(rowKeys(want), rowKeys(got.Result)) {
		t.Fatalf("remote result diverged: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
	if got.Schema.Len() != want.Schema.Len() {
		t.Fatalf("schema diverged: %d vs %d fields", got.Schema.Len(), want.Schema.Len())
	}
	if got.Attempts != 1 {
		t.Fatalf("clean network took %d attempts", got.Attempts)
	}
	// The trailer carries execution stats, not zero values.
	if got.Elapsed <= 0 || got.Cluster.BytesShuffled <= 0 {
		t.Fatalf("stats lost in trailer: elapsed=%v shuffled=%d", got.Elapsed, got.Cluster.BytesShuffled)
	}
	if got.Metrics == nil {
		t.Fatal("metrics snapshot lost in trailer")
	}
}

func TestServeTraceLines(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	res, err := c.Query(context.Background(), demoJoinSQL, client.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceLines) == 0 {
		t.Fatal("no trace lines came back")
	}
	joined := strings.Join(res.TraceLines, "\n")
	if !strings.Contains(joined, "query") {
		t.Fatalf("trace render looks wrong:\n%s", joined)
	}
}

func TestServeParseErrorNotRetried(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 5 })
	_, err := c.Query(context.Background(), "SELECT FROM WHERE nonsense")
	if err == nil {
		t.Fatal("garbage SQL must error")
	}
	if fudj.IsRetryable(err) {
		t.Fatalf("parse errors must be non-retryable, got %v", err)
	}
	if got := ts.srv.Counters().Queries; got != 1 {
		t.Fatalf("server saw %d attempts for a non-retryable error, want 1", got)
	}
}

func TestServeDeadlinePropagation(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	// Straggle both nodes far past the deadline so even the batched
	// hot path cannot finish the demo join before it expires.
	ts.db.MustConfigure(fudj.WithFaults(&fudj.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 300 * time.Millisecond,
	}))
	// Raw request with a 1ms budget and no client-side deadline: only
	// the server can enforce it, proving the header actually derives
	// the query context.
	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderDeadlineMs, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := serve.NewFrameReader(resp.Body)
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != serve.FrameError {
		t.Fatalf("got frame type %d, want error frame", typ)
	}
	var env serve.Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	decoded := serve.DecodeError(env)
	var tmo *fudj.TimeoutError
	if !errors.As(decoded, &tmo) {
		t.Fatalf("decoded %T (%v), want TimeoutError", decoded, decoded)
	}
	if fudj.IsRetryable(decoded) {
		t.Fatal("timeouts must not be retryable")
	}
}

func TestServeIdempotentReplay(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	res, err := c.Query(context.Background(), demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed {
		t.Fatal("fresh execution marked replayed")
	}

	// Re-send the same query ID by hand: the response must replay from
	// the record without executing again, and say so in the trailer.
	// Keys are scoped to the instance that executed them.
	key := "t-1@" + ts.srv.InstanceID()
	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderQueryID, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	replayedRes, trailer, err := decodeFrames(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(rowKeys(res.Result), rowKeys(replayedRes)) {
		t.Fatal("replayed response diverged from the original")
	}
	if !trailer.Replayed {
		t.Fatal("replayed response's trailer does not say Replayed")
	}
	if n := ts.srv.ExecCount("", key); n != 1 {
		t.Fatalf("query executed %d times, want 1", n)
	}
	if ctrs := ts.srv.Counters(); ctrs.Replayed != 1 {
		t.Fatalf("replayed counter = %d, want 1", ctrs.Replayed)
	}
	// The exec-count probe is a pure read: no session springs into
	// being for an unknown name.
	before := ts.srv.ExecCount("ghost-session", key)
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 || snap.Sessions != 1 {
		t.Fatalf("ExecCount probe mutated state: count=%d sessions=%d", before, snap.Sessions)
	}
}

// TestServeRetryableRefusalNotCached pins the retry contract against
// the replay cache: a retryable refusal (here a drain shed) must NOT
// be recorded under the query ID, or the client's retry — which reuses
// the ID by design — would replay the cached failure forever instead
// of re-executing.
func TestServeRetryableRefusalNotCached(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	send := func() error {
		req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.HeaderQueryID, "r-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _, decErr := decodeFrames(resp)
		return decErr
	}

	for attempt := 0; attempt < 2; attempt++ {
		prevBytes := ts.srv.Counters().BytesOut
		err := send()
		var sherr *serve.ShedError
		if !errors.As(err, &sherr) {
			t.Fatalf("attempt %d decoded to %T (%v), want ShedError", attempt, err, err)
		}
		if !fudj.IsRetryable(err) {
			t.Fatalf("attempt %d refusal not retryable", attempt)
		}
		// The handler's deferred bookkeeping (which forgets the record)
		// may still be running when the client has the error frame in
		// hand; wait for it so the next attempt races nothing. A real
		// retry's backoff dwarfs this window.
		deadline := time.Now().Add(5 * time.Second)
		for ts.srv.Counters().BytesOut == prevBytes {
			if time.Now().After(deadline) {
				t.Fatal("handler bookkeeping never finished")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Both attempts were refused afresh — neither was served back out
	// of the replay cache, and no execution record lingers for the ID.
	ctrs := ts.srv.Counters()
	if ctrs.Refused != 2 || ctrs.Replayed != 0 {
		t.Fatalf("refused=%d replayed=%d, want 2 fresh refusals", ctrs.Refused, ctrs.Replayed)
	}
	if n := ts.srv.ExecCount("", "r-1"); n != 0 {
		t.Fatalf("refused query left an execution record (%d)", n)
	}
}

// decodeRows drains one response body into sorted row keys.
func decodeRows(resp *http.Response) ([]string, error) {
	res, _, err := decodeFrames(resp)
	if err != nil {
		return nil, err
	}
	return rowKeys(res), nil
}

func TestServeSessionExpirySweepsCatalog(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.Session = "ephemeral" })
	if _, err := c.Query(context.Background(), `SELECT p.id INTO scratch FROM parks p`); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.db.Catalog().Dataset("scratch"); err != nil {
		t.Fatal("SELECT INTO did not materialize:", err)
	}
	// Idle past the horizon: the session and its objects go away — once
	// the handler has retired the query, which can trail the client
	// seeing the trailer (a session with an in-flight query is kept).
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.ExpireIdle(time.Now().Add(2*serve.DefaultSessionIdle)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no session expired")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ts.db.Catalog().Dataset("scratch"); err == nil {
		t.Fatal("expired session's dataset survived the sweep")
	}
}

func TestServeMetricsAndQueriesEndpoints(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	if _, err := c.Query(context.Background(), demoJoinSQL); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Proto != serve.ProtoVersion || snap.Server.Completed < 1 || snap.Scheduler.Admitted < 1 {
		t.Fatalf("metrics snapshot incomplete: %+v", snap)
	}
	ds, joins, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || len(joins) == 0 {
		t.Fatalf("catalog listing empty: %v %v", ds, joins)
	}
}

func TestServeProtocolVersionRefused(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	// "1" is the previous generation, whose frame CRC did not cover the
	// type byte.
	for _, proto := range []string{"99", "1"} {
		req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader("SELECT 1"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.HeaderProto, proto)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _, decErr := decodeFrames(resp)
		resp.Body.Close()
		if decErr == nil {
			t.Fatalf("protocol %s must be refused", proto)
		}
		if fudj.IsRetryable(decErr) {
			t.Fatalf("protocol %s mismatch must not be retryable", proto)
		}
	}
}

// TestServeChaosConvergence is the headline chaos assertion: with
// accept-refusals, mid-response resets, corrupt bytes, and stalls all
// injected, the retrying client's results stay multiset-identical to
// in-process execution, and no idempotent resubmission ever
// double-executes.
func TestServeChaosConvergence(t *testing.T) {
	chaos := serve.ChaosConfig{
		Seed:             42,
		AcceptRefuseProb: 0.10,
		ResetProb:        0.03,
		CorruptProb:      0.03,
		StallProb:        0.05,
		Stall:            5 * time.Millisecond,
	}
	ts := startServer(t, serve.Config{}, &chaos)
	c := newClient(t, ts, func(cfg *client.Config) {
		cfg.MaxAttempts = 10
		cfg.AttemptTimeout = 5 * time.Second
	})

	want, err := ts.db.Execute(demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := rowKeys(want)

	// At least minQueries, and then on until some query needed a retry:
	// how many connections and writes the HTTP stack makes for one query —
	// and so how many times the chaos dice are rolled — is not this
	// test's to fix, so a fixed count is occasionally fault-free. At
	// ≥ 6 % per write, maxQueries fault-free queries do not happen.
	const minQueries, maxQueries = 25, 400
	queries, totalAttempts := 0, 0
	for queries < minQueries || totalAttempts <= queries {
		if queries == maxQueries {
			t.Fatalf("chaos injected no retries (%d attempts for %d queries); the suite proved nothing", totalAttempts, queries)
		}
		res, err := c.Query(context.Background(), demoJoinSQL)
		if err != nil {
			t.Fatalf("query %d failed through chaos: %v", queries, err)
		}
		if !sameMultiset(wantKeys, rowKeys(res.Result)) {
			t.Fatalf("query %d diverged under chaos", queries)
		}
		queries++
		totalAttempts += res.Attempts
	}
	// Idempotency invariant: whatever the retry count, nothing ran
	// twice — swept over every key, since keys are instance-scoped.
	for key, n := range ts.srv.ExecCounts("") {
		if n > 1 {
			t.Fatalf("query %s executed %d times", key, n)
		}
	}
	cs := ts.chaos.Stats()
	t.Logf("chaos: %d accepts, %d refused, %d resets, %d corrupts, %d stalls; %d attempts for %d queries",
		cs.Accepts, cs.Refused, cs.Resets, cs.Corrupts, cs.Stalls, totalAttempts, queries)
	if cs.Refused+cs.Resets+cs.Corrupts == 0 {
		t.Fatal("no faults were actually injected")
	}
}

// TestServeDrainUnderLoad: drain with work in flight. In-flight
// queries complete, new arrivals are refused with a retryable
// ShedError carrying the retry-after hint, /metrics stays reachable
// while draining, and no temp files survive.
func TestServeDrainUnderLoad(t *testing.T) {
	ts := startServer(t, serve.Config{RetryAfter: 123 * time.Millisecond}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 1 })

	// Open-loop submitters keep queries in flight.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, shed int
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Query(context.Background(), demoJoinSQL)
				mu.Lock()
				if err == nil {
					completed++
				} else {
					var sherr *serve.ShedError
					if errors.As(err, &sherr) {
						shed++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Wait until the storm is actually executing, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.Counters().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("load never started")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- ts.srv.Drain(drainCtx) }()

	// While draining, /metrics stays reachable and reports it.
	for !ts.srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal("metrics unreachable during drain:", err)
	}
	if !snap.Draining {
		t.Fatal("metrics does not report draining")
	}

	// A fresh query during the drain is refused retryably, with hint.
	_, qerr := c.Query(context.Background(), demoJoinSQL)
	if qerr == nil {
		t.Fatal("draining server admitted a query")
	}
	var sherr *serve.ShedError
	if !errors.As(qerr, &sherr) {
		t.Fatalf("drain refusal decoded to %T (%v), want ShedError", qerr, qerr)
	}
	if !fudj.IsRetryable(qerr) {
		t.Fatal("drain refusal must be retryable at the network boundary")
	}
	if d, ok := serve.RetryAfter(qerr); !ok || d != 123*time.Millisecond {
		t.Fatalf("retry-after hint = %v, %v; want 123ms", d, ok)
	}

	if err := <-drainDone; err != nil {
		t.Fatal("drain:", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	t.Logf("drain under load: %d completed, %d shed", completed, shed)
	if completed == 0 {
		mu.Unlock()
		t.Fatal("no query completed before the drain")
	}
	mu.Unlock()

	// Scheduler invariants survived the storm; nothing leaked.
	stats := ts.db.SchedulerStats()
	if stats.LeaseBytes != 0 {
		t.Fatalf("leases leaked: %d bytes", stats.LeaseBytes)
	}
	if stats.Pool > 0 && stats.LeasePeak > stats.Pool {
		t.Fatalf("LeasePeak %d exceeded Pool %d", stats.LeasePeak, stats.Pool)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertTmpEmpty(t)
}

// newBlockingJoin installs block_join(int, int) in db: every pair lands
// in one bucket, and VERIFY signals entered on its first call, then
// blocks until release is closed.
func newBlockingJoin(t *testing.T, db *fudj.DB, entered chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	var once sync.Once
	lib := fudj.NewLibrary("blocklib")
	lib.MustRegister("test.BlockingJoin", func() fudj.Join {
		return fudj.Wrap(fudj.Spec[int64, int64, int64, int64]{
			Name:         "block_join",
			NewSummary:   func() int64 { return 0 },
			LocalAggLeft: func(k, s int64) int64 { return s + 1 },
			GlobalAgg:    func(a, b int64) int64 { return a + b },
			Divide:       func(l, r int64, _ []any) (int64, error) { return 1, nil },
			AssignLeft:   func(_, _ int64, dst []fudj.BucketID) []fudj.BucketID { return append(dst, 0) },
			Verify: func(_ fudj.BucketID, l int64, _ fudj.BucketID, r int64, _ int64) bool {
				once.Do(func() { close(entered) })
				<-release
				return l == r
			},
		})
	})
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN block_join(a: int, b: int) RETURNS boolean AS "test.BlockingJoin" AT blocklib`); err != nil {
		t.Fatal(err)
	}
}

// liveQueries reads GET /v1/queries.
func liveQueries(t *testing.T, hc *http.Client, ts *testServer) []map[string]any {
	t.Helper()
	resp, err := hc.Get(ts.base + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Queries []map[string]any `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Queries
}

// TestServeRemoteCancel drives the one path that stops a served query:
// the server detaches a keyed query from its request so a retry can
// replay it, so when the client's context ends mid-query the client
// must POST /v1/cancel. The query is held inside VERIFY, listed by
// /v1/queries, canceled through the client, and released: the server
// counts one cancel, its execution ends in context.Canceled (read back
// through the replay cache), and no query, temp file or goroutine
// outlives it.
func TestServeRemoteCancel(t *testing.T) {
	// The server adds two goroutines that live until its Shutdown at
	// cleanup: the accept loop and the session janitor.
	base := runtime.NumGoroutine() + 2
	ts := startServer(t, serve.Config{}, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	newBlockingJoin(t, ts.db, entered, release)
	hc := &http.Client{Transport: &http.Transport{}}

	c := newClient(t, ts, func(cfg *client.Config) { cfg.Session = "cancel" })
	const sql = `SELECT COUNT(*) FROM parks p, wildfires w WHERE block_join(p.id, w.id)`
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, sql)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the query never reached VERIFY")
	}
	key := "t-1@" + ts.srv.InstanceID()
	if live := liveQueries(t, hc, ts); len(live) != 1 || live[0]["query_id"] != key || live[0]["session"] != "cancel" {
		t.Fatalf("/v1/queries = %v, want the one blocked query %s", live, key)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled in chain", err)
	}
	if n := ts.srv.Counters().Canceled; n != 1 {
		t.Fatalf("server counted %d cancels, want 1", n)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for len(liveQueries(t, hc, ts)) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the canceled query is still listed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := ts.srv.Counters(); got.Failed != 1 || got.Completed != 0 {
		t.Fatalf("counters %+v, want one failed execution and none completed", got)
	}

	// The settled outcome is in the replay cache: resubmitting the key
	// replays the execution's own error.
	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderSession, "cancel")
	req.Header.Set(serve.HeaderQueryID, key)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = decodeFrames(resp)
	resp.Body.Close()
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("replayed outcome = %v, want the execution's context.Canceled", err)
	}
	if n := ts.srv.ExecCount("cancel", key); n != 1 {
		t.Fatalf("query executed %d times, want 1", n)
	}

	c.Close()
	hc.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			t.Fatalf("goroutines: %d running, want %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertTmpEmpty(t)
}

// TestServeClientCancellation: a canceled context surfaces
// context.Canceled, not a retry storm.
func TestServeClientCancellation(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 5 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Query(ctx, demoJoinSQL)
	if err == nil {
		t.Fatal("canceled context must error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in chain", err)
	}
	if n := ts.srv.Counters().Queries; n > 1 {
		t.Fatalf("canceled query was retried %d times", n)
	}
}
