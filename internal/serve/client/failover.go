// Multi-endpoint failover: a Client fans a session out over several
// independent fudjd instances, pushing the coordination the
// shared-nothing deployment model refuses to centralize into the
// client. One server is the n = 1 case of the same rules. The
// correctness problem is that almost everything a client leans on is
// per-instance state: idempotency keys replay only against the
// instance that recorded them, and session-scoped DDL (CREATE JOIN,
// SELECT ... INTO) lives in one instance's catalog. The client
// therefore treats the instance ID (HeaderInstance) as the scope of
// everything it knows:
//
//   - Keys are minted per (logical query, instance) — a retry against
//     the same instance reuses the key and replays; failover to a new
//     instance re-keys, so ExecCount stays ≤ 1 per (instance, key)
//     while the trailer row-count cross-check guards the result.
//   - Session DDL that succeeded is journaled client-side and replayed
//     on first contact with a new instance, so the session survives
//     its server — including a restart of the only one.
//   - Every query ships HeaderExpectInstance; a restarted server
//     refuses with a retryable mismatch naming its new identity, so
//     the client resynchronizes without a probe round trip per query.
//
// Availability is the circuit breaker: consecutive retryable failures
// open an endpoint's breaker, and a timed half-open probe of /v1/ready
// closes it when the instance returns. An open breaker is skipped only
// while another endpoint is routable; with none, the query goes to the
// breaker due to half-open first, so a client never fails a query it
// did not send. A draining instance is special-cased — its shed
// envelope is an announcement, not a fault, so the client fails over
// to a peer immediately instead of climbing a backoff ladder against a
// server that already said goodbye.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/sched"
	"fudj/internal/serve"
	"fudj/internal/sqlparse"
)

// breakerThreshold is the consecutive failure count that opens an
// endpoint's breaker.
const breakerThreshold = 3

// journalEntry is one session-scoped DDL statement the client must
// replay onto any instance it meets, so the session's objects exist
// wherever the session's queries land.
type journalEntry struct {
	sql     string
	logical int64  // the statement's logical ID: replay reuses its key
	name    string // the catalog object it creates
	isJoin  bool   // join definition vs dataset
}

// endpoint is one server the client routes to, with the breaker and
// instance state the client keeps about it.
type endpoint struct {
	url string

	// mu serializes instance discovery and journal replay: exactly one
	// goroutine re-establishes the session on a fresh instance while
	// the rest queue behind it.
	mu             sync.Mutex
	instance       string // last known instance ID ("" = never met)
	journalApplied int    // journal entries known applied to instance

	// Breaker state, guarded by the client's mu.
	consecFails int
	open        bool
	openUntil   time.Time
}

// Stats is a failover and breaker activity snapshot.
type Stats struct {
	Failovers      int64 // queries that moved to a peer after a failure
	DrainFailovers int64 // draining-instance sheds; each fails over when a peer exists
	Rekeys         int64 // idempotency keys re-minted for a new instance
	BreakerOpens   int64
	BreakerCloses  int64
	Probes         int64 // readiness probes (half-open + first contact)
	JournalReplays int64 // DDL statements replayed onto new instances
}

// Stats snapshots the client's failover and breaker activity.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// routable reports whether ep may take traffic at now: breaker closed,
// or open with an elapsed cooldown (half-open).
func (ep *endpoint) routable(now time.Time) bool {
	return !ep.open || !now.Before(ep.openUntil)
}

// route returns the endpoint for the next attempt, half-open probing
// it first when pick asks for that. A failed probe re-arms that
// endpoint's cooldown, so the loop ends after at most one probe per
// endpoint.
func (c *Client) route(ctx context.Context) *endpoint {
	for {
		ep, probe := c.pick()
		if !probe || c.probe(ctx, ep) {
			return ep
		}
	}
}

// pick selects the endpoint to try: round-robin from the sticky
// cursor over routable endpoints, returning a half-open one with
// probe=true (the caller must probe it before use). Half-open
// endpoints compete with closed ones on purpose: a recovered instance
// must win the cursor back eventually even while its peers stay
// healthy, or an opened breaker would never close. When every breaker
// is open and cooling, it returns the one due to half-open first,
// unprobed: with no alternative, the query itself is the probe — which
// is also why a lone endpoint is never probed.
func (c *Client) pick() (ep *endpoint, probe bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	n := len(c.eps)
	for i := 0; i < n; i++ {
		cand := c.eps[(c.cursor+i)%n]
		if cand.routable(now) {
			c.cursor = (c.cursor + i) % n
			return cand, cand.open && n > 1
		}
		if ep == nil || cand.openUntil.Before(ep.openUntil) {
			ep = cand
		}
	}
	return ep, false
}

// probe half-opens ep's breaker: one /v1/ready round trip. Ready
// closes the breaker (and adopts the answering instance — a restart
// may have changed it); anything else re-opens it for another
// cooldown.
func (c *Client) probe(ctx context.Context, ep *endpoint) bool {
	c.count(func(st *Stats) { st.Probes++ })
	ready, inst, err := c.ready(ctx, ep)
	if err != nil || !ready {
		c.mu.Lock()
		ep.openUntil = c.clock.Now().Add(c.cfg.BreakerCooldown)
		c.mu.Unlock()
		return false
	}
	c.onSuccess(ep)
	if inst != "" {
		ep.adoptInstance(inst)
	}
	return true
}

// ensure returns ep's instance ID, discovering it (one readiness round
// trip) on first contact and replaying any journaled session DDL the
// instance has not seen. Serialized per endpoint, so a fresh instance
// is re-established exactly once however many queries race to it. A
// draining instance is not refused here: the query itself brings back
// the server's own shed, with its retry-after hint.
func (c *Client) ensure(ctx context.Context, ep *endpoint) (string, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.instance == "" {
		c.count(func(st *Stats) { st.Probes++ })
		_, inst, err := c.ready(ctx, ep)
		if err != nil {
			return "", err
		}
		if inst == "" {
			return "", &serve.TransportError{Op: "probe " + ep.url, Err: errors.New("server reported no instance ID")}
		}
		ep.instance = inst
		ep.journalApplied = 0
	}
	entries := c.journalSnapshot()
	for i := ep.journalApplied; i < len(entries); i++ {
		e := entries[i]
		// Reuse the statement's original logical key, scoped to this
		// instance: if the statement already executed here (we created
		// it through this very instance), the attempt replays instead
		// of re-executing.
		_, err := c.attempt(ctx, ep, e.sql, c.key(e.logical, ep.instance), ep.instance, queryOpts{})
		if err != nil {
			var im *serve.InstanceMismatchError
			if errors.As(err, &im) {
				ep.instance = im.Got
				ep.journalApplied = 0
				return "", err // retryable: Query loops back into ensure
			}
			if cluster.IsRetryable(err) {
				return "", err
			}
			// Non-retryable replay failure — usually "already exists"
			// after an attempt whose response was lost. If the catalog
			// has the object, the session state is established; only a
			// genuinely missing object fails the query.
			if c.objectExists(ctx, ep, e) {
				ep.journalApplied = i + 1
				continue
			}
			return "", fmt.Errorf("client: re-establish session on %s: %w", ep.url, err)
		}
		ep.journalApplied = i + 1
		c.count(func(st *Stats) { st.JournalReplays++ })
	}
	return ep.instance, nil
}

// adoptInstance records a newly learned instance identity, resetting
// journal progress when it changed (a new instance has seen nothing).
func (ep *endpoint) adoptInstance(inst string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.instance != inst {
		ep.instance = inst
		ep.journalApplied = 0
	}
}

// journalOnSuccess records session-scoped DDL that succeeded against
// src, so later instances can be brought up to date. The executing
// endpoint's watermark advances past the new entry — it just ran the
// statement, so replaying it back (a guaranteed replay-cache hit, but
// a round trip all the same) would be pure overhead. DROP JOIN erases
// the matching journaled CREATE instead of being journaled itself —
// replaying a create/drop pair onto a fresh instance would be churn —
// and every endpoint watermark past the erased index shifts down with
// the entries it was counting, so no endpoint skips an entry it has
// not seen. Watermark adjustments happen outside c.mu (ep.mu nests
// the other way in ensure).
func (c *Client) journalOnSuccess(sql string, logical int64, src *endpoint) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return
	}
	appended, removed := -1, -1
	c.mu.Lock()
	switch st := stmt.(type) {
	case *sqlparse.Select:
		if st.Into != "" {
			c.journal = append(c.journal, journalEntry{sql: sql, logical: logical, name: st.Into})
			appended = len(c.journal) - 1
		}
	case *sqlparse.CreateJoin:
		c.journal = append(c.journal, journalEntry{sql: sql, logical: logical, name: st.Name, isJoin: true})
		appended = len(c.journal) - 1
	case *sqlparse.DropJoin:
		for i := len(c.journal) - 1; i >= 0; i-- {
			if c.journal[i].isJoin && c.journal[i].name == st.Name {
				c.journal = append(c.journal[:i], c.journal[i+1:]...)
				removed = i
				break
			}
		}
	}
	c.mu.Unlock()
	if appended >= 0 && src != nil {
		src.mu.Lock()
		if src.journalApplied == appended {
			src.journalApplied = appended + 1
		}
		src.mu.Unlock()
	}
	if removed >= 0 {
		for _, ep := range c.eps {
			ep.mu.Lock()
			if ep.journalApplied > removed {
				ep.journalApplied--
			}
			ep.mu.Unlock()
		}
	}
}

func (c *Client) journalSnapshot() []journalEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]journalEntry, len(c.journal))
	copy(out, c.journal)
	return out
}

// objectExists consults ep's catalog for a journal entry's object.
func (c *Client) objectExists(ctx context.Context, ep *endpoint, e journalEntry) bool {
	var cat catalogJSON
	if c.getJSON(ctx, ep, "/v1/catalog", &cat) != nil {
		return false
	}
	names := cat.Datasets
	if e.isJoin {
		names = cat.Joins
	}
	for _, n := range names {
		if n == e.name {
			return true
		}
	}
	return false
}

// isDrainShed reports whether err is an instance announcing its own
// departure (a shed envelope whose admission reason is draining).
func isDrainShed(err error) bool {
	var adm *sched.AdmissionError
	return errors.As(err, &adm) && adm.Reason == sched.ReasonDraining
}

// onSuccess clears ep's failure streak and closes its breaker.
func (c *Client) onSuccess(ep *endpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.consecFails = 0
	if ep.open {
		ep.open = false
		c.stats.BreakerCloses++
	}
}

// recordFailure notes a retryable failure against ep, opening its
// breaker at the threshold and moving the cursor to a peer either way.
func (c *Client) recordFailure(ep *endpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.consecFails++
	if ep.consecFails >= breakerThreshold && !ep.open {
		ep.open = true
		ep.openUntil = c.clock.Now().Add(c.cfg.BreakerCooldown)
		c.stats.BreakerOpens++
	}
	c.advanceLocked(ep)
}

// tripDrain opens ep's breaker immediately — one draining shed is an
// announcement, not a failure streak — stretching the cooldown to any
// server retry-after hint, and moves the cursor to a peer. It reports
// whether a peer is routable to fail over to.
func (c *Client) tripDrain(ep *endpoint, err error) bool {
	cooldown := c.cfg.BreakerCooldown
	if hint, ok := serve.RetryAfter(err); ok && hint > cooldown {
		cooldown = hint
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.DrainFailovers++
	if !ep.open {
		ep.open = true
		c.stats.BreakerOpens++
	}
	now := c.clock.Now()
	ep.openUntil = now.Add(cooldown)
	ep.consecFails = 0
	c.advanceLocked(ep)
	for _, peer := range c.eps {
		if peer != ep && peer.routable(now) {
			return true
		}
	}
	return false
}

// advanceLocked moves the sticky cursor off ep. Callers hold c.mu.
func (c *Client) advanceLocked(ep *endpoint) {
	if c.eps[c.cursor] == ep {
		c.cursor = (c.cursor + 1) % len(c.eps)
	}
}

func (c *Client) count(f func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.stats)
}

// epsInOrder lists endpoints starting at the sticky cursor, closed
// breakers first.
func (c *Client) epsInOrder() []*endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.eps)
	var closed, opened []*endpoint
	for i := 0; i < n; i++ {
		ep := c.eps[(c.cursor+i)%n]
		if ep.open {
			opened = append(opened, ep)
		} else {
			closed = append(closed, ep)
		}
	}
	return append(closed, opened...)
}
