package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/sched"
	"fudj/internal/serve"
)

var poolEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// manualClock is a hand-advanced trace.Clock for breaker timing tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// readyServer is a stub fudjd answering only the readiness probe.
func readyServer(t *testing.T, instance string, ready *bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ready" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(serve.HeaderInstance, instance)
		w.Header().Set("Content-Type", "application/json")
		ok := *ready
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{"ready": ok, "draining": !ok, "instance": instance})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newTestClient(t *testing.T, clock *manualClock, endpoints ...string) *Client {
	t.Helper()
	c, err := New(Config{
		BaseURL:         strings.Join(endpoints, ","),
		Seed:            1,
		BreakerCooldown: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock
	t.Cleanup(c.Close)
	return c
}

func TestPoolSeededSelectionDeterministic(t *testing.T) {
	eps := []string{"http://a:1", "http://b:1", "http://c:1"}
	a := newTestClient(t, &manualClock{now: poolEpoch}, eps...)
	b := newTestClient(t, &manualClock{now: poolEpoch}, eps...)
	if a.cursor != b.cursor {
		t.Fatalf("same seed, different starting endpoints: %d vs %d", a.cursor, b.cursor)
	}
	epA, _ := a.pick()
	epB, _ := b.pick()
	if epA.url != epB.url {
		t.Fatalf("same seed picked %s vs %s", epA.url, epB.url)
	}
}

func TestPoolBreakerOpensAtThresholdAndFailsOver(t *testing.T) {
	clock := &manualClock{now: poolEpoch}
	p := newTestClient(t, clock, "http://a:1", "http://b:1")
	first, _ := p.pick()

	// Below the threshold the endpoint stays routable (cursor moves off
	// it, but it is not open).
	p.recordFailure(first)
	p.recordFailure(first)
	if first.open {
		t.Fatal("breaker opened below threshold")
	}
	p.recordFailure(first)
	if !first.open {
		t.Fatal("breaker must open at the threshold")
	}
	// pick must now route to the peer, not the open endpoint.
	for i := 0; i < 4; i++ {
		ep, probe := p.pick()
		if probe || ep == first {
			t.Fatalf("pick routed to the open endpoint (probe=%v)", probe)
		}
	}
	if st := p.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
}

func TestPoolBreakerHalfOpenProbeCloses(t *testing.T) {
	ready := true
	backend := readyServer(t, "inst-1", &ready)
	clock := &manualClock{now: poolEpoch}
	p := newTestClient(t, clock, backend.URL, "http://peer:1")
	ep, peer := p.eps[0], p.eps[1]

	for i := 0; i < 3; i++ {
		p.recordFailure(ep)
	}
	if !ep.open {
		t.Fatal("breaker must be open")
	}
	// Cooling down: traffic goes to the peer, not even a probe here.
	if got, probe := p.pick(); got != peer || probe {
		t.Fatal("open breaker inside cooldown must not be picked while a peer is routable")
	}
	// Past the cooldown the endpoint competes for the cursor again and
	// is offered as a half-open probe once the cursor reaches it.
	clock.advance(300 * time.Millisecond)
	p.cursor = 0
	got, probe := p.pick()
	if got != ep || !probe {
		t.Fatalf("expected half-open probe offer, got (%v, %v)", got, probe)
	}
	if !p.probe(context.Background(), ep) {
		t.Fatal("probe against a ready server must close the breaker")
	}
	if ep.open || ep.consecFails != 0 {
		t.Fatal("breaker not reset after successful probe")
	}
	if inst := ep.instance; inst != "inst-1" {
		t.Fatalf("probe did not adopt instance: %q", inst)
	}
	if st := p.Stats(); st.BreakerCloses != 1 || st.Probes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolBreakerProbeAgainstDrainingReopens(t *testing.T) {
	ready := false
	backend := readyServer(t, "inst-1", &ready)
	clock := &manualClock{now: poolEpoch}
	p := newTestClient(t, clock, backend.URL, "http://peer:1")
	ep, peer := p.eps[0], p.eps[1]
	for i := 0; i < 3; i++ {
		p.recordFailure(ep)
	}
	clock.advance(300 * time.Millisecond)
	if p.probe(context.Background(), ep) {
		t.Fatal("probe against a draining server must fail")
	}
	if !ep.open {
		t.Fatal("breaker must stay open after a failed probe")
	}
	// The failed probe re-arms the cooldown from now.
	p.cursor = 0
	if got, _ := p.pick(); got != peer {
		t.Fatal("failed probe must re-enter cooldown")
	}
	clock.advance(300 * time.Millisecond)
	ready = true
	p.cursor = 0
	if _, probe := p.pick(); !probe {
		t.Fatal("cooldown elapsed again: expected another probe offer")
	}
	if !p.probe(context.Background(), ep) {
		t.Fatal("probe against the recovered server must close the breaker")
	}
}

func TestPoolTripDrainFailsOverImmediately(t *testing.T) {
	clock := &manualClock{now: poolEpoch}
	p := newTestClient(t, clock, "http://a:1", "http://b:1")
	ep, _ := p.pick()
	hint := 700 * time.Millisecond
	if !p.tripDrain(ep, &serve.ShedError{
		RetryAfter: hint,
		Err:        &sched.AdmissionError{Reason: sched.ReasonDraining},
	}) {
		t.Fatal("tripDrain saw no routable peer")
	}
	if !ep.open {
		t.Fatal("draining endpoint must open immediately (no failure streak)")
	}
	// The cooldown is stretched to the server's own retry-after hint.
	if got := ep.openUntil.Sub(poolEpoch); got != hint {
		t.Fatalf("openUntil %v after trip, want the %v hint", got, hint)
	}
	// And the very next pick is the peer — no backoff in between.
	next, probe := p.pick()
	if probe || next == ep {
		t.Fatal("pick after a drain trip must be the peer, immediately")
	}
	st := p.Stats()
	if st.DrainFailovers != 1 || st.BreakerOpens != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBreakerAllOpenRoutesToFirstDue: an open breaker is skipped only
// while another endpoint is routable. With none, the query goes to the
// breaker due to half-open first, unprobed, so a client never fails a
// query it did not send — and a lone endpoint is never probed at all.
func TestBreakerAllOpenRoutesToFirstDue(t *testing.T) {
	clock := &manualClock{now: poolEpoch}
	solo := newTestClient(t, clock, "http://a:1")
	drain := &serve.ShedError{RetryAfter: time.Second, Err: &sched.AdmissionError{Reason: sched.ReasonDraining}}
	if solo.tripDrain(solo.eps[0], drain) {
		t.Fatal("a lone endpoint has no peer to fail over to")
	}
	for _, wait := range []time.Duration{0, 2 * time.Second} {
		clock.advance(wait)
		if ep, probe := solo.pick(); ep != solo.eps[0] || probe {
			t.Fatalf("after %v: lone endpoint offered (%v, probe=%v), want it unprobed", wait, ep, probe)
		}
	}

	p := newTestClient(t, clock, "http://a:1", "http://b:1")
	a, b := p.eps[0], p.eps[1]
	p.tripDrain(a, drain) // due back in 1s
	for i := 0; i < 3; i++ {
		p.recordFailure(b) // due back in 250ms
	}
	p.cursor = 0
	if ep, probe := p.pick(); ep != b || probe {
		t.Fatalf("all open: picked %s (probe=%v), want the first due, %s", ep.url, probe, b.url)
	}
}

// TestReadyProbeHonorsAttemptTimeout: a server that accepts the
// connection but never answers its readiness probe must not hang a
// query whose context has no deadline — AttemptTimeout bounds the
// probe like any other round trip.
func TestReadyProbeHonorsAttemptTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	c, err := New(Config{BaseURL: srv.URL, AttemptTimeout: 50 * time.Millisecond, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), "SELECT 1")
		done <- err
	}()
	select {
	case err := <-done:
		var te *serve.TransportError
		if !errors.As(err, &te) || !cluster.IsRetryable(err) {
			t.Fatalf("got %T (%v), want a retryable *serve.TransportError", err, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("query hung on a stalled readiness probe")
	}
}

func TestPoolJournal(t *testing.T) {
	p := newTestClient(t, &manualClock{now: poolEpoch}, "http://a:1")
	p.journalOnSuccess("SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)", 1, nil)
	p.journalOnSuccess(`CREATE JOIN myjoin(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`, 2, nil)
	p.journalOnSuccess("SELECT p.id INTO hits FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)", 3, nil)
	entries := p.journalSnapshot()
	if len(entries) != 2 {
		t.Fatalf("journal holds %d entries, want 2 (plain SELECT is not session DDL)", len(entries))
	}
	if !entries[0].isJoin || entries[0].name != "myjoin" || entries[0].logical != 2 {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[1].isJoin || entries[1].name != "hits" || entries[1].logical != 3 {
		t.Fatalf("entry 1: %+v", entries[1])
	}
	// DROP JOIN erases the matching CREATE rather than being journaled.
	p.journalOnSuccess("DROP JOIN myjoin", 4, nil)
	entries = p.journalSnapshot()
	if len(entries) != 1 || entries[0].name != "hits" {
		t.Fatalf("after drop: %+v", entries)
	}
}

func TestPoolJournalWatermarks(t *testing.T) {
	p := newTestClient(t, &manualClock{now: poolEpoch}, "http://a:1", "http://b:1")
	src, other := p.eps[0], p.eps[1]
	createSQL := func(name string) string {
		return "CREATE JOIN " + name + `(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`
	}
	// The endpoint that executed a statement must not replay it back to
	// itself: its watermark rides the append.
	p.journalOnSuccess(createSQL("j1"), 1, src)
	p.journalOnSuccess(createSQL("j2"), 2, src)
	if src.journalApplied != 2 {
		t.Fatalf("executing endpoint watermark %d, want 2", src.journalApplied)
	}
	if other.journalApplied != 0 {
		t.Fatalf("peer watermark %d, want 0 (it has seen nothing)", other.journalApplied)
	}
	// A peer that replayed only j1 (watermark 1) must still owe j2 after
	// j1's entry is erased by a DROP — the indexes it was counting
	// shifted down, and so must the watermark.
	other.journalApplied = 1
	p.journalOnSuccess("DROP JOIN j1", 3, src)
	entries := p.journalSnapshot()
	if len(entries) != 1 || entries[0].name != "j2" {
		t.Fatalf("after drop: %+v", entries)
	}
	if other.journalApplied != 0 {
		t.Fatalf("peer watermark %d after drop, want 0 (still owes j2)", other.journalApplied)
	}
	if src.journalApplied != 1 {
		t.Fatalf("executing endpoint watermark %d after drop, want 1", src.journalApplied)
	}
}

func TestPoolIsDrainShed(t *testing.T) {
	drain := &serve.ShedError{Err: &sched.AdmissionError{Reason: sched.ReasonDraining}}
	if !isDrainShed(drain) {
		t.Fatal("draining shed not classified")
	}
	busy := &serve.ShedError{Err: &sched.AdmissionError{Reason: sched.ReasonQueueFull}}
	if isDrainShed(busy) {
		t.Fatal("queue-full shed misclassified as draining")
	}
	if isDrainShed(&serve.TransportError{Op: "x"}) {
		t.Fatal("transport error misclassified as draining")
	}
}
