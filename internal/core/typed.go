package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"fudj/internal/wire"
)

// Spec is the typed, developer-facing definition of a FUDJ algorithm.
// It is the Go analogue of the paper's Java FUDJ interfaces: the author
// fills in plain functions over concrete key (KL, KR), summary (S), and
// plan (P) types; Wrap then builds the proxy translation layer (Fig. 7)
// that presents the algorithm to the engine as an untyped Join.
//
// Optional fields and their defaults:
//   - LocalAggRight/AssignRight: nil means the right side reuses the
//     left-side function (requires KL == KR at runtime) and marks the
//     join SymmetricSummarize for the optimizer's self-join reuse.
//   - Match: nil means the framework's default equality match, which
//     lets the optimizer compel a hash join (single-join).
//   - DedupFn: consulted only when Dedup == DedupCustom.
type Spec[KL, KR, S, P any] struct {
	Name   string
	Params int
	Dedup  DedupMode

	NewSummary    func() S
	LocalAggLeft  func(key KL, s S) S
	LocalAggRight func(key KR, s S) S
	GlobalAgg     func(a, b S) S
	Divide        func(left, right S, params []any) (P, error)
	AssignLeft    func(key KL, plan P, dst []BucketID) []BucketID
	AssignRight   func(key KR, plan P, dst []BucketID) []BucketID
	Match         func(b1, b2 BucketID) bool
	Verify        func(b1 BucketID, left KL, b2 BucketID, right KR, plan P) bool
	DedupFn       func(b1 BucketID, left KL, b2 BucketID, right KR, plan P) bool

	// LocalJoin, when non-nil, replaces the engine's nested
	// verify loop inside one matched bucket pair with a custom local
	// algorithm (e.g. plane-sweep for spatial data, merge join for
	// sorted keys) — the local join optimization the paper proposes as
	// future work in §VII-F/§VIII. The implementation receives every
	// record key of both buckets and must call emit(i, j) for each
	// VERIFIED joining pair of positions; the framework still applies
	// duplicate handling to emitted pairs. Correctness contract: the
	// emitted pair set must equal what Verify would accept.
	LocalJoin func(b1 BucketID, left []KL, b2 BucketID, right []KR, plan P, emit func(i, j int))
}

// Wrap validates the spec and returns the engine-facing Join. It panics
// on an incomplete spec: a missing mandatory function is a library bug
// that must surface at registration, not mid-query.
func Wrap[KL, KR, S, P any](spec Spec[KL, KR, S, P]) Join {
	if spec.Name == "" {
		panic("core: spec needs a Name")
	}
	for name, fn := range map[string]bool{
		"NewSummary":   spec.NewSummary == nil,
		"LocalAggLeft": spec.LocalAggLeft == nil,
		"GlobalAgg":    spec.GlobalAgg == nil,
		"Divide":       spec.Divide == nil,
		"AssignLeft":   spec.AssignLeft == nil,
		"Verify":       spec.Verify == nil,
	} {
		if fn {
			panic(fmt.Sprintf("core: spec %q is missing %s", spec.Name, name))
		}
	}
	if spec.Dedup == DedupCustom && spec.DedupFn == nil {
		panic(fmt.Sprintf("core: spec %q sets DedupCustom without DedupFn", spec.Name))
	}
	return &wrapped[KL, KR, S, P]{spec: spec}
}

// wrapped is the proxy between the engine's untyped calls and a typed
// user spec. Its conversions are the translation layer of Fig. 7.
type wrapped[KL, KR, S, P any] struct {
	spec Spec[KL, KR, S, P]
}

func (w *wrapped[KL, KR, S, P]) Descriptor() Descriptor {
	return Descriptor{
		Name:               w.spec.Name,
		Params:             w.spec.Params,
		DefaultMatch:       w.spec.Match == nil,
		SymmetricSummarize: w.spec.LocalAggRight == nil,
		Dedup:              w.spec.Dedup,
		LocalJoin:          w.spec.LocalJoin != nil,
	}
}

func (w *wrapped[KL, KR, S, P]) NewSummary(Side) Summary { return w.spec.NewSummary() }

// castKey converts an engine-supplied key to the concrete type the
// library expects, failing loudly: a kind mismatch means the CREATE
// JOIN signature and the query disagree, which the planner should have
// rejected.
func castKey[K any](joinName string, side Side, key any) K {
	k, ok := key.(K)
	if !ok {
		panic(fmt.Sprintf("core: join %q %s key is %T, want %T", joinName, side, key, *new(K)))
	}
	return k
}

func (w *wrapped[KL, KR, S, P]) LocalAggregate(side Side, key any, s Summary) Summary {
	sum := s.(S)
	if side == Right && w.spec.LocalAggRight != nil {
		return w.spec.LocalAggRight(castKey[KR](w.spec.Name, side, key), sum)
	}
	return w.spec.LocalAggLeft(castKey[KL](w.spec.Name, side, key), sum)
}

func (w *wrapped[KL, KR, S, P]) GlobalAggregate(_ Side, a, b Summary) Summary {
	return w.spec.GlobalAgg(a.(S), b.(S))
}

func (w *wrapped[KL, KR, S, P]) Divide(left, right Summary, params []any) (PPlan, error) {
	if got := len(params); got != w.spec.Params {
		return nil, fmt.Errorf("core: join %q expects %d parameters, got %d", w.spec.Name, w.spec.Params, got)
	}
	return w.spec.Divide(left.(S), right.(S), params)
}

func (w *wrapped[KL, KR, S, P]) Assign(side Side, key any, plan PPlan, dst []BucketID) []BucketID {
	p := plan.(P)
	if side == Right && w.spec.AssignRight != nil {
		return w.spec.AssignRight(castKey[KR](w.spec.Name, side, key), p, dst)
	}
	// Left side, or a symmetric assign: the key must be a KL.
	return w.spec.AssignLeft(castKey[KL](w.spec.Name, side, key), p, dst)
}

func (w *wrapped[KL, KR, S, P]) Match(b1, b2 BucketID) bool {
	if w.spec.Match == nil {
		return DefaultMatch(b1, b2)
	}
	return w.spec.Match(b1, b2)
}

func (w *wrapped[KL, KR, S, P]) Verify(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool {
	return w.spec.Verify(b1,
		castKey[KL](w.spec.Name, Left, leftKey), b2,
		castKey[KR](w.spec.Name, Right, rightKey), plan.(P))
}

func (w *wrapped[KL, KR, S, P]) Dedup(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool {
	switch w.spec.Dedup {
	case DedupCustom:
		return w.spec.DedupFn(b1,
			castKey[KL](w.spec.Name, Left, leftKey), b2,
			castKey[KR](w.spec.Name, Right, rightKey), plan.(P))
	case DedupAvoidance:
		return DefaultDedup(w, b1, leftKey, b2, rightKey, plan)
	default:
		return true
	}
}

func (w *wrapped[KL, KR, S, P]) LocalJoin(b1 BucketID, leftKeys []any, b2 BucketID, rightKeys []any, plan PPlan, emit func(i, j int)) {
	if w.spec.LocalJoin == nil {
		panic(fmt.Sprintf("core: join %q has no LocalJoin", w.spec.Name))
	}
	ls := make([]KL, len(leftKeys))
	for i, k := range leftKeys {
		ls[i] = castKey[KL](w.spec.Name, Left, k)
	}
	rs := make([]KR, len(rightKeys))
	for i, k := range rightKeys {
		rs[i] = castKey[KR](w.spec.Name, Right, k)
	}
	w.spec.LocalJoin(b1, ls, b2, rs, plan.(P), emit)
}

// State serialization: summaries and plans cross node boundaries, so
// they get a real byte encoding. Types that implement the wire
// interfaces use the fast path; everything else falls back to gob.
// A one-byte tag distinguishes the two so decode is self-describing.
const (
	codecGob  = 0
	codecWire = 1
)

func encodeState[T any](v T) ([]byte, error) {
	// The wire fast path is used only when the round trip is closed:
	// T marshals and *T unmarshals. Otherwise gob handles both ends.
	if m, ok := any(v).(wire.Marshaler); ok {
		if _, ok := any(new(T)).(wire.Unmarshaler); ok {
			e := wire.NewEncoder(64)
			e.Byte(codecWire)
			m.MarshalWire(e)
			return e.Bytes(), nil
		}
	}
	var buf bytes.Buffer
	buf.WriteByte(codecGob)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("core: gob encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func decodeState[T any](buf []byte) (T, error) {
	var zero T
	if len(buf) == 0 {
		return zero, fmt.Errorf("core: empty state buffer")
	}
	switch buf[0] {
	case codecWire:
		ptr := any(&zero)
		u, ok := ptr.(wire.Unmarshaler)
		if !ok {
			return zero, fmt.Errorf("core: state tagged wire but %T cannot unmarshal", zero)
		}
		if err := u.UnmarshalWire(wire.NewDecoder(buf[1:])); err != nil {
			return zero, err
		}
		return zero, nil
	case codecGob:
		if err := gob.NewDecoder(bytes.NewReader(buf[1:])).Decode(&zero); err != nil {
			return zero, fmt.Errorf("core: gob decode: %w", err)
		}
		return zero, nil
	}
	return zero, fmt.Errorf("core: unknown state codec tag %d", buf[0])
}

func (w *wrapped[KL, KR, S, P]) EncodeSummary(s Summary) ([]byte, error) {
	return encodeState[S](s.(S))
}

func (w *wrapped[KL, KR, S, P]) DecodeSummary(buf []byte) (Summary, error) {
	return decodeState[S](buf)
}

func (w *wrapped[KL, KR, S, P]) EncodePlan(p PPlan) ([]byte, error) {
	return encodeState[P](p.(P))
}

func (w *wrapped[KL, KR, S, P]) DecodePlan(buf []byte) (PPlan, error) {
	return decodeState[P](buf)
}
