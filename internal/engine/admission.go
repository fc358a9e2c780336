package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fudj/internal/sched"
	"fudj/internal/trace"
)

// This file is the engine side of admission control: every SELECT
// passes through the Database's scheduler (internal/sched) before a
// cluster is stood up. With no limits configured the scheduler is a
// zero-cost counter; with WithConcurrencyLimit/WithMemoryPool the
// query may queue, receive a reduced memory lease (degrading into
// spill pressure), or be shed with a retryable *sched.AdmissionError.

// Scheduler metric names, written into each query's Result.Metrics so
// it surfaces admission behaviour alongside the transport and memory
// counters.
const (
	// MetricSchedAdmitted counts this query's admission (always 1 for a
	// query that produced a Result).
	MetricSchedAdmitted = "sched.admitted"
	// MetricSchedQueued is 1 when the query waited in the admission
	// queue before running.
	MetricSchedQueued = "sched.queued"
	// MetricSchedShedTotal is the scheduler-wide count of shed queries
	// observed at this query's admission (shed queries never produce a
	// Result of their own to carry it).
	MetricSchedShedTotal = "sched.shed.total"
	// MetricSchedQueueWait is the queue wait in nanoseconds, reported as
	// a one-observation ".count", ".sum" and ".max".
	MetricSchedQueueWait = "sched.queue.wait.ns"
	// MetricSchedLease is the memory lease granted to this query, with
	// an equal ".peak".
	MetricSchedLease = "sched.lease.bytes"
)

// SchedStats carries one query's admission outcome in its Result.
type SchedStats struct {
	// QueueWait is how long the query sat in the admission queue.
	QueueWait time.Duration
	// LeaseBytes is the memory lease granted from the shared pool
	// (0 when no pool is configured); it became the query's memory
	// budget. A lease smaller than requested means the scheduler
	// admitted the query under contention and the query ran with
	// tighter memory — spill pressure instead of waiting.
	LeaseBytes int64
	// Priority is the class the query was admitted under.
	Priority sched.Priority
}

// TimeoutError reports a query aborted by its per-query timeout
// (WithQueryTimeout / the Timeout exec option). It wraps
// context.DeadlineExceeded, so errors.Is classifies it, and it has no
// Retryable method: re-running the same query under the same timeout
// would time out again, so the fault machinery treats it as permanent.
type TimeoutError struct {
	Timeout time.Duration
	Err     error
}

// Error implements the error interface.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("engine: query exceeded its %v timeout: %v", e.Timeout, e.Err)
}

// Unwrap exposes the underlying context error for errors.Is chains.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Scheduler exposes the database's admission controller (never nil).
func (db *Database) Scheduler() *sched.Scheduler { return db.sched }

// SchedulerStats snapshots the admission controller's counters.
func (db *Database) SchedulerStats() sched.Stats { return db.sched.Stats() }

// Drain gracefully shuts the database down for new work: admission
// stops (late arrivals shed with a non-retryable AdmissionError),
// in-flight queries run to completion, and past ctx's deadline they
// are cancelled instead. Drain returns once no query is running — at
// which point every per-query spill and checkpoint directory has been
// swept by its query's own teardown. Returns nil on a clean drain, or
// ctx's error when queries had to be cancelled.
func (db *Database) Drain(ctx context.Context) error {
	return db.sched.Drain(ctx)
}

// admit runs one query's admission: it derives the cancelable (and,
// with a timeout, deadline-bounded) execution context, asks the
// scheduler for a slot and memory lease, and hands back the ticket.
// The caller must call cancel() and ticket.Release() when the query
// finishes. The requested lease is the configured per-query budget —
// under a pool, PR 2's budgets are exactly what admission leases out.
func (db *Database) admit(ctx context.Context, eo execOpts) (context.Context, context.CancelFunc, *sched.Ticket, error) {
	var cancel context.CancelFunc
	if eo.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, eo.timeout)
	} else {
		// Always cancelable so a Drain deadline can abort the query.
		ctx, cancel = context.WithCancel(ctx)
	}
	ticket, err := db.sched.Acquire(ctx, sched.Request{
		Priority: eo.priority,
		Lease:    db.MemoryBudget(),
		Cancel:   cancel,
	})
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	return ctx, cancel, ticket, nil
}

// wrapTimeout converts a deadline-exceeded run error into the
// structured TimeoutError when this query ran under a per-query
// timeout; other errors pass through.
func wrapTimeout(err error, eo execOpts) error {
	if err == nil || eo.timeout <= 0 {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &TimeoutError{Timeout: eo.timeout, Err: context.DeadlineExceeded}
	}
	return err
}

// stampSched records the admission outcome into the query's metrics
// map and trace, so Result.Metrics, Result.Sched and EXPLAIN
// ANALYZE all tell the same story. The sched span only appears when
// the scheduler actually did something (queued the query or granted a
// lease), keeping unlimited-mode traces unchanged.
func stampSched(m map[string]int64, root *trace.Span, ticket *sched.Ticket, st sched.Stats) {
	m[MetricSchedAdmitted] = 1
	if wait := int64(ticket.Wait()); wait > 0 {
		m[MetricSchedQueued] = 1
		m[MetricSchedQueueWait+".count"] = 1
		m[MetricSchedQueueWait+".sum"] = wait
		m[MetricSchedQueueWait+".max"] = wait
	}
	if st.Shed > 0 {
		m[MetricSchedShedTotal] = st.Shed
	}
	if lease := ticket.Lease(); lease > 0 {
		m[MetricSchedLease] = lease
		m[MetricSchedLease+".peak"] = lease
	}
	if ticket.Wait() > 0 || ticket.Lease() > 0 {
		sp := root.Child("sched")
		sp.Add("wait.ns", int64(ticket.Wait()))
		sp.Add("lease.bytes", ticket.Lease())
		sp.Add("priority", int64(ticket.Priority()))
		sp.End()
	}
}
