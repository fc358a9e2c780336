// Package core implements the FUDJ programming model — the paper's
// primary contribution. A join library author implements the small set
// of functions from §IV (SUMMARIZE, DIVIDE, ASSIGN, MATCH, VERIFY,
// DEDUP) against plain Go values; the engine supplies everything else:
// distributed two-step aggregation, partitioning, bucket matching,
// verification, and duplicate handling.
//
// The package is deliberately independent of the engine's value system:
// like the paper's standalone prototype (§VI-D2), a Join here can be
// executed by the in-process RunStandalone driver for development and
// debugging, and then installed unchanged into the distributed engine,
// which bridges its native records to these plain values through the
// translation layer of Fig. 7 (see internal/engine).
package core

import (
	"fmt"
	"sort"
	"sync"
)

// BucketID identifies one logical bucket produced by the PARTITION
// phase (Definition 5 in the paper).
type BucketID = int

// SortedIDs returns a bucket map's ids in ascending order, so map
// iteration order never leaks into result order.
func SortedIDs[V any](m map[BucketID]V) []BucketID {
	ids := make([]BucketID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Side distinguishes the two inputs of a join. Several model functions
// may be implemented differently per side (e.g. different key types).
type Side int

// The two join sides.
const (
	Left Side = iota
	Right
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Summary is the opaque per-side aggregation state built during
// SUMMARIZE (Definition 2). Concrete joins use their own types; the
// engine moves summaries between nodes with the join's codec.
type Summary = any

// PPlan is the opaque partitioning plan returned by DIVIDE
// (Definition 4) and broadcast to every node.
type PPlan = any

// DedupMode selects how the framework handles the duplicate result
// pairs that multi-assign partitioning can produce (§III-B, Fig. 5).
type DedupMode int

const (
	// DedupNone disables duplicate handling: the join either is
	// single-assign (no duplicates possible) or the caller accepts
	// duplicates for speed.
	DedupNone DedupMode = iota
	// DedupAvoidance is the framework default: a matched pair is kept
	// only in its canonical bucket pair, computed by re-running assign
	// on both keys (no post-join shuffle needed).
	DedupAvoidance
	// DedupCustom delegates to the join's own Dedup function, e.g. the
	// Reference Point method for spatial joins.
	DedupCustom
	// DedupElimination lets duplicates flow out of the join and removes
	// them with a distinct stage afterwards (requires an extra shuffle;
	// kept for the Fig. 12a comparison).
	DedupElimination
)

// String implements fmt.Stringer.
func (m DedupMode) String() string {
	switch m {
	case DedupNone:
		return "none"
	case DedupAvoidance:
		return "avoidance"
	case DedupCustom:
		return "custom"
	case DedupElimination:
		return "elimination"
	}
	return fmt.Sprintf("dedup(%d)", int(m))
}

// Descriptor carries the static properties of a join library that the
// query optimizer inspects (§VI-C): whether the MATCH function is the
// default equality (enabling the Hash Join operator and hash
// partitioning), whether both sides are summarized identically
// (enabling the self-join optimization), and how duplicates are handled.
type Descriptor struct {
	// Name is the algorithm name, e.g. "spatial_pbsm".
	Name string
	// Params is the number of extra scalar parameters after the two
	// keys in the join predicate's signature (e.g. 1 for the similarity
	// threshold).
	Params int
	// DefaultMatch reports that MATCH is bucket equality, so the
	// optimizer may compel a Hash Join for bucket matching. When false
	// the join is a multi-join and needs the theta operator.
	DefaultMatch bool
	// SymmetricSummarize reports that both sides share one SUMMARIZE
	// implementation, enabling summary reuse on self-joins.
	SymmetricSummarize bool
	// Dedup selects the duplicate handling strategy.
	Dedup DedupMode
	// LocalJoin reports that the join supplies a custom local bucket
	// joining algorithm (§VII-F), which the executor uses instead of
	// the nested verify loop.
	LocalJoin bool
}

// Join is the engine-facing contract of a FUDJ library: the six model
// functions plus codecs for the two opaque states. Library authors do
// not usually implement this directly — they implement the typed
// interfaces in typed.go and let Wrap build the translation layer —
// but nothing stops a power user from implementing it natively.
type Join interface {
	// Descriptor returns the static join properties.
	Descriptor() Descriptor

	// NewSummary returns the identity summary for one side.
	NewSummary(side Side) Summary
	// LocalAggregate folds one key into a node-local summary and
	// returns the updated summary (the paper's local_aggregate).
	// Executors fold a partition through LocalAggregateAll, which calls
	// this once per key unless the Join was built by Wrap.
	LocalAggregate(side Side, key any, s Summary) Summary
	// GlobalAggregate merges two summaries (the paper's
	// global_aggregate). It must be associative and commutative.
	GlobalAggregate(side Side, a, b Summary) Summary

	// Divide combines both global summaries and any query parameters
	// into the partitioning plan (the paper's divide).
	Divide(left, right Summary, params []any) (PPlan, error)

	// Assign appends the bucket ids for key to dst and returns the
	// extended slice (the paper's assign). One id = single-assign;
	// several = multi-assign.
	Assign(side Side, key any, plan PPlan, dst []BucketID) []BucketID

	// Match reports whether two buckets may hold joining records
	// (the paper's match). Implementations with DefaultMatch true must
	// return b1 == b2.
	Match(b1, b2 BucketID) bool

	// Verify reports whether a candidate pair truly joins
	// (the paper's verify).
	Verify(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool

	// Dedup reports whether the pair should be emitted from this bucket
	// pair (true = keep). Both executors call it for every verified pair
	// under DedupAvoidance and DedupCustom, and under no other mode; a
	// Wrap-built join answers DefaultDedup under DedupAvoidance.
	Dedup(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool

	// LocalJoin runs the join's custom local bucket-joining algorithm
	// over one matched bucket pair, emitting verified position pairs.
	// Only called when Descriptor().LocalJoin is true. The key slices
	// are the caller's scratch, not to be retained after it returns.
	LocalJoin(b1 BucketID, leftKeys []any, b2 BucketID, rightKeys []any, plan PPlan, emit func(i, j int))

	// EncodeSummary and DecodeSummary serialize summaries for network
	// transfer between the local and global aggregation steps.
	EncodeSummary(s Summary) ([]byte, error)
	DecodeSummary(buf []byte) (Summary, error)

	// EncodePlan and DecodePlan serialize the partitioning plan for
	// broadcast to all nodes.
	EncodePlan(p PPlan) ([]byte, error)
	DecodePlan(buf []byte) (PPlan, error)
}

// LocalAggregateAll folds keys into s in order, writing the index of
// the key in hand to *rec so a panic names its record. A Wrap-built
// join folds them in one typed loop; any other Join is called per key.
func LocalAggregateAll(j Join, side Side, keys []any, s Summary, rec *int) Summary {
	if b, ok := j.(interface {
		localAggregateAll(Side, []any, Summary, *int) Summary
	}); ok {
		return b.localAggregateAll(side, keys, s, rec)
	}
	for i, k := range keys {
		*rec = i
		s = j.LocalAggregate(side, k, s)
	}
	return s
}

// Rekeys reports whether j is a Wrap-built join with Spec.Rekey: its
// AssignAll hands out each rekeyed key's encoding, and COMBINE reads it
// back through Preparer.Decode.
func Rekeys(j Join) bool {
	r, ok := j.(rekeyer)
	return ok && r.rekeys()
}

// rekeyer is the rekeying half of a Wrap-built join.
type rekeyer interface {
	rekeys() bool
	rekeyAll(Side, []any, PPlan, *int, AssignSink) error
}

// AssignAll runs ASSIGN over one task's prepared keys, writing the index
// in hand to *rec so a panic names its record, and returns the first
// sink error. For a join that Rekeys, one typed loop rekeys each key
// with the plan, assigns the result and hands sink its encoding, sliced
// from chunks the call allocates; a Preparer's Decode reads it back.
// Any other Join is called per key, and sink gets key "".
func AssignAll(j Join, side Side, keys []any, plan PPlan, rec *int, sink AssignSink) error {
	if Rekeys(j) {
		return j.(rekeyer).rekeyAll(side, keys, plan, rec, sink)
	}
	var ids []BucketID
	for i, k := range keys {
		*rec = i
		ids = j.Assign(side, k, plan, ids[:0])
		if err := sink.Assigned(i, ids, ""); err != nil {
			return err
		}
	}
	return nil
}

// An AssignSink takes each record i's bucket ids, valid until the call
// returns, and its rekeyed key's encoding ("" without Rekey), valid
// while reachable. It is an interface, not a func, so a task's sink and
// its state cost one allocation.
type AssignSink interface {
	Assigned(i int, ids []BucketID, key string) error
}

// A Preparer converts the keys of one executor task into the form its
// join's functions take: raw keys through a Wrap-built join's
// Spec.Prepare, and the keys AssignAll encoded through the key
// type's wire codec, its results boxed from a chunked slab of the
// spec's key type, so n keys cost one allocation per chunk beside
// Prepare's own work. Any other Join, and a spec without Prepare or
// Rekey, gets a Preparer whose Prepare hands the raw key back,
// allocating nothing and calling nothing. Executors prepare each
// record's key once and hand the result to every later call about that
// record. A Preparer is not safe for concurrent use.
type Preparer struct {
	p keyPreparer // nil: keys need no preparation and none is shipped
}

// keyPreparer is the preparing half of a Wrap-built join with Prepare
// or Rekey.
type keyPreparer interface {
	prepare(raw any) any
	decode(col string) (any, error)
}

// NewPreparer returns j's Preparer for one task, its slab growing chunk
// keys at a time.
func NewPreparer(j Join, chunk int) Preparer {
	if w, ok := j.(interface{ preparer(chunk int) keyPreparer }); ok {
		return Preparer{w.preparer(chunk)}
	}
	return Preparer{}
}

// Prepare returns raw in the form the join's functions take.
func (p Preparer) Prepare(raw any) any {
	if p.p == nil {
		return raw
	}
	return p.p.prepare(raw)
}

// Decode returns the key whose encoding AssignAll handed out as
// col. Call it only for a join that Rekeys.
func (p Preparer) Decode(col string) (any, error) { return p.p.decode(col) }

// DefaultMatch is the framework-provided MATCH: plain bucket equality,
// which turns the COMBINE phase into a single-join that the optimizer
// can execute with its hash join operator.
func DefaultMatch(b1, b2 BucketID) bool { return b1 == b2 }

// DefaultDedup implements the framework's duplicate-avoidance method
// (§IV-C): re-run assign on both keys, and keep the pair only in its
// canonical bucket pair, the first pair (left assign list outer, right
// inner) that MATCH accepts. It needs no extra shuffle stage. Both
// executors reach it through Join.Dedup under DedupAvoidance, once per
// verified pair, so the two assign lists are pooled scratch.
func DefaultDedup(j Join, b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool {
	lists := assignLists.Get().(*[2][]BucketID)
	defer assignLists.Put(lists)
	lists[0] = j.Assign(Left, leftKey, plan, lists[0][:0])
	lists[1] = j.Assign(Right, rightKey, plan, lists[1][:0])
	for _, x := range lists[0] {
		for _, y := range lists[1] {
			if j.Match(x, y) {
				return x == b1 && y == b2
			}
		}
	}
	// The current pair was produced, so a matching pair must exist
	// unless Assign is non-deterministic (a library bug); err on the
	// side of keeping the result.
	return true
}

// assignLists holds DefaultDedup's scratch: a left and a right assign
// list.
var assignLists = sync.Pool{New: func() any { return new([2][]BucketID) }}

// JoinBuckets joins one matched bucket pair, whose prepared keys are lk
// and rk, and calls emit(i, k) for every verified position pair: through
// the join's custom local algorithm when local is set (§VII-F), or the
// nested VERIFY loop over every candidate pair otherwise, which writes
// the left position in hand to *rec when rec is non-nil, so a panic can
// name its record. Both executors join every bucket pair through it.
func JoinBuckets(j Join, local bool, b1 BucketID, lk []any, b2 BucketID, rk []any, plan PPlan, rec *int, emit func(i, k int)) {
	if local {
		j.LocalJoin(b1, lk, b2, rk, plan, emit)
		return
	}
	for i, l := range lk {
		if rec != nil {
			*rec = i
		}
		for k, r := range rk {
			if j.Verify(b1, l, b2, r, plan) {
				emit(i, k)
			}
		}
	}
}
