// Executor abstracts where the shell's statements run: in-process
// against a *fudj.DB, or across the wire against a fudjd server. The
// REPL is identical either way — same rendering, same error taxonomy,
// same cancellation story — which is the point: the network layer is
// not allowed to change the programming model.
package shell

import (
	"context"
	"sync"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
	"fudj/internal/trace"
)

// Outcome is one statement's result plus its rendered trace (when
// tracing was requested). Remote executions carry the server-rendered
// span lines; local ones render from the in-memory span tree.
type Outcome struct {
	Res        *fudj.Result
	TraceLines []string
}

// Executor runs statements somewhere.
type Executor interface {
	// Execute runs one statement. Cancel ctx to abort it.
	Execute(ctx context.Context, sql string, traced bool) (*Outcome, error)
	// Datasets and Joins list the catalog for the backslash commands.
	Datasets() ([]string, error)
	Joins() ([]string, error)
	// DB exposes the local database, or nil when remote (\save, \load
	// and Chrome trace export need in-process access).
	DB() *fudj.DB
	// Close releases the executor's resources.
	Close() error
}

// Local is the in-process Executor.
type Local struct {
	db *fudj.DB
}

// NewLocal wraps an open database.
func NewLocal(db *fudj.DB) *Local { return &Local{db: db} }

// Execute implements Executor.
func (l *Local) Execute(ctx context.Context, sql string, traced bool) (*Outcome, error) {
	var opts []fudj.ExecOption
	if traced {
		opts = append(opts, fudj.Trace())
	}
	res, err := l.db.ExecuteContext(ctx, sql, opts...)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Res: res}
	if traced && res.Trace != nil && !isExplainAnalyze(res) {
		out.TraceLines = trace.RenderLines(res.Trace, trace.RenderOptions{CollapseTasks: true})
	}
	return out, nil
}

// isExplainAnalyze reports whether the result already carries its span
// render in its rows (EXPLAIN ANALYZE), so printing the trace again
// would duplicate it.
func isExplainAnalyze(res *fudj.Result) bool {
	return res.Schema != nil && res.Schema.Len() == 1 && res.Schema.Fields[0].Name == "plan"
}

// Datasets implements Executor.
func (l *Local) Datasets() ([]string, error) { return l.db.Catalog().Datasets(), nil }

// Joins implements Executor.
func (l *Local) Joins() ([]string, error) { return l.db.Catalog().Joins(), nil }

// DB implements Executor.
func (l *Local) DB() *fudj.DB { return l.db }

// Close implements Executor.
func (l *Local) Close() error { return nil }

// Remote is the network Executor: statements travel to one or more
// fudjd servers through the retrying, failover-capable client.
type Remote struct {
	c *client.Client
}

// NewRemote wraps a client.
func NewRemote(c *client.Client) *Remote { return &Remote{c: c} }

// Execute implements Executor.
func (r *Remote) Execute(ctx context.Context, sql string, traced bool) (*Outcome, error) {
	var opts []client.QueryOption
	if traced {
		opts = append(opts, client.WithTrace())
	}
	res, err := r.c.Query(ctx, sql, opts...)
	if err != nil {
		return nil, err
	}
	return &Outcome{Res: res.Result, TraceLines: res.TraceLines}, nil
}

// Datasets implements Executor.
func (r *Remote) Datasets() ([]string, error) {
	ds, _, err := r.c.Catalog(context.Background())
	return ds, err
}

// Joins implements Executor.
func (r *Remote) Joins() ([]string, error) {
	_, js, err := r.c.Catalog(context.Background())
	return js, err
}

// DB implements Executor.
func (r *Remote) DB() *fudj.DB { return nil }

// Close implements Executor.
func (r *Remote) Close() error { r.c.Close(); return nil }

// Metrics fetches the server's metrics snapshot (the \metrics command).
func (r *Remote) Metrics(ctx context.Context) (serve.MetricsSnapshot, error) {
	return r.c.Metrics(ctx)
}

// Canceler hands the in-flight query's cancel function to a signal
// handler: the first Ctrl-C cancels the query instead of the shell,
// the next one (nothing left to cancel) exits. Safe for concurrent use.
type Canceler struct {
	mu     sync.Mutex
	cancel context.CancelFunc
}

// NewCanceler returns an empty canceler.
func NewCanceler() *Canceler { return &Canceler{} }

// set installs the active query's cancel function.
func (c *Canceler) set(f context.CancelFunc) {
	c.mu.Lock()
	c.cancel = f
	c.mu.Unlock()
}

// clear removes it when the query finishes.
func (c *Canceler) clear() { c.set(nil) }

// CancelActive cancels the in-flight query, if any, consuming the
// registration so a second call reports false and the caller can exit.
func (c *Canceler) CancelActive() bool {
	c.mu.Lock()
	f := c.cancel
	c.cancel = nil
	c.mu.Unlock()
	if f == nil {
		return false
	}
	f()
	return true
}

// run executes one statement under a cancelable context registered
// with c (when non-nil).
func run(ctx context.Context, ex Executor, c *Canceler, sql string, traced bool) (*Outcome, error) {
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if c != nil {
		c.set(cancel)
		defer c.clear()
	}
	return ex.Execute(qctx, sql, traced)
}
