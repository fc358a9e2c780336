// Package client is the retrying, failover-capable fudj network
// client. It speaks the internal/serve frame protocol against one or
// more fudjd servers and restores the in-process programming model on
// the far side of the socket: queries return *engine.Result, failures
// decode to the same concrete error taxonomy, and fudj.IsRetryable
// classifies them identically. A single server is the one-endpoint case
// of the same machinery (failover.go).
//
// Robustness contract:
//
//   - Deadline propagation: each attempt forwards the context's
//     remaining budget in X-Fudj-Deadline-Ms, so the server derives its
//     query context from the client's deadline rather than guessing.
//   - Retry: retryable failures (transport faults, corrupt frames,
//     admission sheds, barrier losses) are retried with jittered
//     exponential backoff; a server-supplied retry-after hint is
//     honored as the floor of the wait. Non-retryable errors
//     (timeouts, resource overruns, UDF panics, parse errors) are
//     returned on the first attempt, never retried.
//   - Idempotency: every logical query carries a client-chosen key
//     scoped to the instance it lands on; all attempts against that
//     instance reuse it, so a retry whose original response was lost
//     replays the server's recorded response instead of executing the
//     statement twice.
//   - Cancellation: when the caller's context is canceled mid-query
//     the client aborts the attempt, sends a best-effort /v1/cancel so
//     the server-side execution stops too, and surfaces an error
//     wrapping context.Canceled.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/engine"
	"fudj/internal/sched"
	"fudj/internal/serve"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// Config shapes one Client.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:7531", or
	// several independent instances as a comma-separated list to fail
	// over between. A bare host:port gets "http://". Required.
	BaseURL string
	// Session names the server-side session, re-established on every
	// instance the client touches. Empty selects "default".
	Session string
	// QueryPrefix namespaces this client's idempotency keys inside the
	// session. Two concurrent clients sharing a session MUST use
	// distinct prefixes or their replay records collide. Empty selects
	// "q<Seed>".
	QueryPrefix string
	// MaxAttempts bounds tries per query across all endpoints (first
	// attempt included). <=0 selects 4 per endpoint. 1 disables retry.
	MaxAttempts int
	// BackoffBase seeds the exponential backoff. <=0 selects 50ms.
	BackoffBase time.Duration
	// BackoffMax caps one backoff wait. <=0 selects 2s.
	BackoffMax time.Duration
	// AttemptTimeout bounds every round trip to one endpoint (query
	// attempt, readiness probe, catalog read) end-to-end, so a stalled
	// connection turns into a retryable transport error instead of a
	// hang. 0 means the caller's context is the only bound.
	AttemptTimeout time.Duration
	// Seed feeds endpoint selection and backoff jitter (deterministic
	// tests). 0 selects 1.
	Seed int64
	// BreakerCooldown is how long an open breaker waits before a
	// half-open probe. <=0 selects 250ms.
	BreakerCooldown time.Duration
}

// Result is one successful query's outcome.
type Result struct {
	*engine.Result
	// TraceLines is the server-rendered span tree (WithTrace only).
	TraceLines []string
	// Attempts is how many tries this query took.
	Attempts int
	// Replayed reports that the server answered from its idempotent
	// replay cache (an earlier attempt's recorded response) rather
	// than a fresh execution.
	Replayed bool
	// Instance is the serving instance's stable ID (HeaderInstance) —
	// the scope of this query's idempotency key and session state.
	Instance string
	// Endpoint is the base URL that answered.
	Endpoint string
}

// QueryOption tweaks one Query call.
type QueryOption func(*queryOpts)

type queryOpts struct {
	priority sched.Priority
	hasPrio  bool
	traced   bool
}

// WithPriority sets the admission priority for this query.
func WithPriority(p sched.Priority) QueryOption {
	return func(o *queryOpts) { o.priority = p; o.hasPrio = true }
}

// WithTrace asks the server to render the execution span tree into the
// result's TraceLines.
func WithTrace() QueryOption {
	return func(o *queryOpts) { o.traced = true }
}

// Client is a retrying connection to one or more fudjd instances. Safe
// for concurrent use.
type Client struct {
	cfg   Config
	hc    *http.Client
	clock trace.Clock // breaker timing and deadline budgets; tests inject a fake
	eps   []*endpoint

	mu      sync.Mutex
	rng     *rand.Rand
	cursor  int // sticky: the endpoint queries currently route to
	nextID  int64
	journal []journalEntry
	stats   Stats
}

// New builds a client. It does not dial; the first Query does.
func New(cfg Config) (*Client, error) {
	c := &Client{hc: &http.Client{}, clock: trace.WallClock{}}
	for _, u := range strings.Split(cfg.BaseURL, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if pu, err := url.Parse(u); err != nil || (pu.Scheme != "http" && pu.Scheme != "https") {
			return nil, fmt.Errorf("client: bad base URL %q", u)
		}
		c.eps = append(c.eps, &endpoint{url: strings.TrimRight(u, "/")})
	}
	if len(c.eps) == 0 {
		return nil, fmt.Errorf("client: Config.BaseURL %q names no server", cfg.BaseURL)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4 * len(c.eps)
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.QueryPrefix == "" {
		cfg.QueryPrefix = "q" + strconv.FormatInt(cfg.Seed, 10)
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	c.cfg = cfg
	c.rng = rand.New(rand.NewSource(cfg.Seed))
	// Seeded-deterministic starting endpoint: spreads a fleet of clients
	// across the instances without any shared state.
	c.cursor = c.rng.Intn(len(c.eps))
	return c, nil
}

// Close releases idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Query executes one statement, failing over between endpoints and
// retrying retryable failures until it succeeds, turns out
// non-retryable, or ctx or the attempt budget runs out. The returned
// error decodes to the same concrete taxonomy type the in-process
// engine would return. The statement's idempotency key is scoped to the
// instance each attempt lands on, so a replay can only come from the
// instance that executed it.
func (c *Client) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	var qo queryOpts
	for _, o := range opts {
		o(&qo)
	}
	c.mu.Lock()
	c.nextID++
	logical := c.nextID
	c.mu.Unlock()

	n := len(c.eps)
	var (
		lastErr  error
		lastEp   *endpoint
		prevInst string
		lastKey  string
	)
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		ep := c.route(ctx)
		if lastEp != nil && ep != lastEp {
			c.count(func(st *Stats) { st.Failovers++ })
		}
		lastEp = ep

		inst, err := c.ensure(ctx, ep)
		var res *Result
		if err == nil {
			if prevInst != "" && inst != prevInst {
				c.count(func(st *Stats) { st.Rekeys++ })
			}
			prevInst = inst
			lastKey = c.key(logical, inst)
			res, err = c.attempt(ctx, ep, sql, lastKey, inst, qo)
		}
		if err == nil {
			c.onSuccess(ep)
			c.journalOnSuccess(sql, logical, ep)
			res.Attempts = attempt
			res.Endpoint = ep.url
			return res, nil
		}
		lastErr = err

		// The caller gave up: stop the server-side execution too, and
		// surface the cancellation rather than the attempt's wreckage.
		if ctx.Err() != nil {
			break
		}
		var im *serve.InstanceMismatchError
		if errors.As(err, &im) {
			// The instance changed between our last contact and this
			// query: adopt the identity it named and retry — ensure will
			// replay the journal, key will re-key. Not a fault, so no
			// breaker hit and no backoff.
			ep.adoptInstance(im.Got)
			continue
		}
		if !cluster.IsRetryable(err) {
			return nil, err
		}
		if isDrainShed(err) {
			// The instance announced it is going away: try a routable
			// peer immediately — backing off would just idle against a
			// server that already refused us.
			if c.tripDrain(ep, err) {
				continue
			}
		} else {
			c.recordFailure(ep)
		}
		// A peer might answer right now; only back off once a full sweep
		// of the endpoints has failed. One endpoint: after every failure.
		if attempt%n != 0 {
			continue
		}
		if attempt < c.cfg.MaxAttempts && sleep(ctx, c.backoffWait((attempt-1)/n+1, err)) != nil {
			break
		}
	}
	if ctx.Err() != nil {
		if lastKey != "" {
			c.cancelRemote(lastEp, lastKey)
		}
		// The attempt error is deliberately flattened to text — wrapping
		// a retryable transport error here would reclassify the caller's
		// own cancellation as retryable.
		return nil, fmt.Errorf("client: query %s-%d: %w (last attempt: %s)", c.cfg.QueryPrefix, logical, ctx.Err(), lastErr.Error())
	}
	return nil, lastErr
}

// key mints the idempotency key for a logical query against one
// instance: deterministic, so a retry against the same instance
// replays, and instance-scoped, so a failover re-executes under a
// fresh key instead of colliding with a stranger's replay record.
func (c *Client) key(logical int64, instance string) string {
	return fmt.Sprintf("%s-%d@%s", c.cfg.QueryPrefix, logical, instance)
}

// backoffWait computes the wait before retrying after failed sweep
// `sweep` (one endpoint: one attempt). Without a server hint it is
// jittered exponential backoff on [d/2, d] where d is the capped
// exponential for this sweep. A server retry-after hint riding on err
// is the *exact minimum* whenever present: the wait is hint plus jitter
// on [0, d/2] — never below the hint (the server knows when it will
// take work again; sleeping less just buys another refusal) and never
// stripped of jitter (a fleet of clients all sleeping exactly the hint
// would resubmit in lockstep).
func (c *Client) backoffWait(sweep int, err error) time.Duration {
	d := c.cfg.BackoffMax
	if sweep <= 32 {
		d = c.cfg.BackoffBase << (sweep - 1)
		if d > c.cfg.BackoffMax || d <= 0 {
			d = c.cfg.BackoffMax
		}
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.mu.Unlock()
	if hint, ok := serve.RetryAfter(err); ok {
		return hint + jitter
	}
	return d/2 + jitter
}

// sleep waits d or until ctx dies.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// bound derives the context for one round trip to one endpoint.
func (c *Client) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	}
	return ctx, func() {}
}

// attempt runs one try of one query against ep. It ships
// HeaderExpectInstance, so a server that is not the named instance
// refuses before touching its replay cache (the failover handshake).
func (c *Client) attempt(parent context.Context, ep *endpoint, sql, key, expect string, qo queryOpts) (*Result, error) {
	ctx, cancel := c.bound(parent)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.url+"/v1/query", strings.NewReader(sql))
	if err != nil {
		return nil, &serve.TransportError{Op: "build request", Err: err}
	}
	req.Header.Set(serve.HeaderProto, strconv.Itoa(serve.ProtoVersion))
	if c.cfg.Session != "" {
		req.Header.Set(serve.HeaderSession, c.cfg.Session)
	}
	req.Header.Set(serve.HeaderQueryID, key)
	req.Header.Set(serve.HeaderExpectInstance, expect)
	// Deadline propagation: ship the remaining budget, not the
	// absolute instant, so client/server clock skew cannot distort it.
	if dl, ok := parent.Deadline(); ok {
		ms := dl.Sub(c.clock.Now()).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(serve.HeaderDeadlineMs, strconv.FormatInt(ms, 10))
	}
	if qo.hasPrio {
		req.Header.Set(serve.HeaderPriority, qo.priority.String())
	}
	if qo.traced {
		req.Header.Set(serve.HeaderTrace, "1")
	}

	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &serve.TransportError{Op: "send query", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, &serve.TransportError{
			Op:  "send query",
			Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)),
		}
	}
	if v := resp.Header.Get(serve.HeaderProto); v != "" && v != strconv.Itoa(serve.ProtoVersion) {
		return nil, &serve.RemoteError{
			Code:    serve.CodeProto,
			Message: fmt.Sprintf("server speaks protocol %s, client %d", v, serve.ProtoVersion),
		}
	}
	res, err := decodeResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	res.Instance = resp.Header.Get(serve.HeaderInstance)
	return res, nil
}

// decodeResponse consumes a frame stream into a Result, or the decoded
// query error.
func decodeResponse(r io.Reader) (*Result, error) {
	fr := serve.NewFrameReader(r)
	var (
		schema *types.Schema
		rows   []types.Record
	)
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// The stream ended before a trailer or error frame: the
				// connection died mid-response.
				return nil, &serve.TransportError{Op: "read response", Err: io.ErrUnexpectedEOF}
			}
			var corrupt *serve.CorruptFrameError
			if errors.As(err, &corrupt) {
				return nil, corrupt
			}
			return nil, &serve.TransportError{Op: "read response", Err: err}
		}
		switch typ {
		case serve.FrameSchema:
			schema, err = serve.DecodeSchemaFrame(payload)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode schema", Err: err}
			}
		case serve.FrameBatch:
			recs, err := types.DecodeRecords(payload)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode batch", Err: err}
			}
			rows = append(rows, recs...)
		case serve.FrameError:
			var env serve.Envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return nil, &serve.TransportError{Op: "decode error envelope", Err: err}
			}
			return nil, serve.DecodeError(env)
		case serve.FrameTrailer:
			t, err := serve.DecodeTrailerFrame(payload)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode trailer", Err: err}
			}
			if schema == nil {
				return nil, &serve.TransportError{Op: "read response", Err: errors.New("trailer before schema")}
			}
			if t.Rows != len(rows) {
				return nil, &serve.CorruptFrameError{
					Tag: serve.FrameTrailer, Length: int64(len(payload)),
					Reason: fmt.Sprintf("trailer row count %d != %d received", t.Rows, len(rows)),
				}
			}
			return &Result{
				Result: &engine.Result{
					Schema:  schema,
					Rows:    rows,
					Plan:    t.Plan,
					Elapsed: time.Duration(t.ElapsedNs),
					Join:    t.Join,
					Cluster: t.Cluster,
					Faults:  t.Faults,
					Memory:  t.Memory,
					Sched:   t.Sched,
					Metrics: t.Metrics,
				},
				TraceLines: t.Trace,
				Replayed:   t.Replayed,
			}, nil
		}
	}
}

// cancelRemote tells ep to cancel key's execution. Best effort with its
// own short budget; the caller is already on the way out.
func (c *Client) cancelRemote(ep *endpoint, key string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sess := c.cfg.Session
	if sess == "" {
		sess = "default"
	}
	u := fmt.Sprintf("%s/v1/cancel?session=%s&query=%s", ep.url, url.QueryEscape(sess), url.QueryEscape(key))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Ready probes /v1/ready on the endpoint queries currently route to. It
// reports whether the server is accepting new queries and which
// instance answered; err is non-nil only when no well-formed answer
// came back at all (a draining server's 503 is a valid "not ready",
// not an error). The answering instance is recorded, so the next query
// needs no first-contact probe of its own.
func (c *Client) Ready(ctx context.Context) (ready bool, instance string, err error) {
	ep, _ := c.pick()
	ready, instance, err = c.ready(ctx, ep)
	if err == nil && instance != "" {
		ep.adoptInstance(instance)
	}
	return ready, instance, err
}

func (c *Client) ready(ctx context.Context, ep *endpoint) (bool, string, error) {
	var out struct {
		Ready    bool   `json:"ready"`
		Instance string `json:"instance"`
	}
	err := c.getJSON(ctx, ep, "/v1/ready", &out)
	return out.Ready, out.Instance, err
}

// Metrics fetches a /metrics snapshot from the first reachable endpoint
// (cursor order, closed breakers first).
func (c *Client) Metrics(ctx context.Context) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	err := c.getFirst(ctx, "/metrics", &snap)
	return snap, err
}

// Catalog fetches the dataset and join listings from the first
// reachable endpoint (cursor order, closed breakers first).
func (c *Client) Catalog(ctx context.Context) (datasets, joins []string, err error) {
	var out catalogJSON
	if err := c.getFirst(ctx, "/v1/catalog", &out); err != nil {
		return nil, nil, err
	}
	return out.Datasets, out.Joins, nil
}

type catalogJSON struct {
	Datasets []string `json:"datasets"`
	Joins    []string `json:"joins"`
}

func (c *Client) getFirst(ctx context.Context, path string, v any) error {
	var err error
	for _, ep := range c.epsInOrder() {
		if err = c.getJSON(ctx, ep, path, v); err == nil {
			return nil
		}
	}
	return err
}

// getJSON reads one JSON document from ep under AttemptTimeout. 200 and
// 503 (a draining server's readiness answer) carry a body; any other
// status is a transport error.
func (c *Client) getJSON(ctx context.Context, ep *endpoint, path string, v any) error {
	ctx, cancel := c.bound(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.url+path, nil)
	if err != nil {
		return &serve.TransportError{Op: "build request", Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &serve.TransportError{Op: "get " + path, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return &serve.TransportError{Op: "get " + path, Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return &serve.TransportError{Op: "get " + path, Err: err}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return &serve.TransportError{Op: "decode " + path, Err: err}
	}
	return nil
}
