package core

import (
	"fmt"
	"runtime/debug"
)

// UDFError is a panic inside user-defined join code, converted into a
// structured error naming the join, the pipeline phase, and — when the
// engine knows them — the partition and record index being processed.
// A UDF panic is deterministic, so the error is not retryable: the
// executor fails the query instead of burning retry attempts on it.
type UDFError struct {
	// Join names the join: the CREATE JOIN function name in the
	// engine, the descriptor's algorithm name in RunStandalone.
	Join string
	// Phase is the pipeline phase executing the UDF: "create" (the
	// constructor or Descriptor), "summarize", "divide", "assign",
	// "match", "combine", or "builtin".
	Phase string
	// Partition is the partition whose task ran the UDF, or -1 when the
	// call happened at the coordinator.
	Partition int
	// Record is the index of the record being processed within the
	// partition's input, or -1 when the call is not record-scoped.
	Record int
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements the error interface.
func (e *UDFError) Error() string {
	loc := "coordinator"
	if e.Partition >= 0 {
		loc = fmt.Sprintf("partition %d", e.Partition)
	}
	if e.Record >= 0 {
		loc += fmt.Sprintf(", record %d", e.Record)
	}
	return fmt.Sprintf("fudj %s: panic in %s (%s): %v", e.Join, e.Phase, loc, e.Panic)
}

// ResourceError reports that a query exceeded its memory budget beyond
// what graceful degradation (spilling, bucket splitting) can absorb —
// e.g. a single record larger than a partition's hard cap. It is
// deterministic (re-running the task would hit the same wall), so the
// executor fails the query instead of retrying.
type ResourceError struct {
	// Join is the join algorithm name, or "" outside a join.
	Join string
	// Phase is the pipeline phase that hit the cap, e.g. "combine".
	Phase string
	// Partition is the partition whose task exceeded its budget, or -1.
	Partition int
	// Bytes is the allocation size that broke the cap.
	Bytes int64
	// Budget is the per-partition hard cap in force.
	Budget int64
}

// Error implements the error interface.
func (e *ResourceError) Error() string {
	loc := "coordinator"
	if e.Partition >= 0 {
		loc = fmt.Sprintf("partition %d", e.Partition)
	}
	join := e.Join
	if join == "" {
		join = "query"
	}
	return fmt.Sprintf("fudj %s: memory budget exceeded in %s (%s): need %d bytes, hard cap %d",
		join, e.Phase, loc, e.Bytes, e.Budget)
}

// CatchPanic is a deferred guard converting a panic inside user-defined
// join code into a structured *UDFError assigned to *err. record may be
// nil (not record-scoped) or point at a loop variable the caller keeps
// updated, so the error names the exact record being processed when the
// UDF blew up:
//
//	func(part int, in []types.Record) (out []types.Record, err error) {
//		rec := -1
//		defer core.CatchPanic(name, "assign", part, &rec, &err)
//		for i, r := range in { rec = i; ... }
//	}
func CatchPanic(join, phase string, partition int, record *int, err *error) {
	p := recover()
	if p == nil {
		return
	}
	rec := -1
	if record != nil {
		rec = *record
	}
	*err = &UDFError{
		Join:      join,
		Phase:     phase,
		Partition: partition,
		Record:    rec,
		Panic:     p,
		Stack:     string(debug.Stack()),
	}
}
