package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"unsafe"

	"fudj/internal/slab"
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

	// Prepare, when non-nil, converts a raw key of either side into the
	// library's own form (a sorted token set, say) once per record; every
	// other function then takes the prepared key, so work they would all
	// repeat is done once. It needs KL == KR, and KL must not be a type
	// raw keys arrive as: a key that is not yet a KL is taken for a raw
	// one and prepared where it is cast, so callers of the untyped Join
	// methods may still pass raw keys.
	Prepare func(raw any) KL

	// Rekey, when non-nil, converts a prepared key into a form that
	// depends on the plan (a review's token ranks, say) once per record,
	// after DIVIDE, in AssignAll; ASSIGN, VERIFY, DEDUP and LocalJoin
	// then take what it returns. AssignAll hands out that form's wire
	// encoding in place of the raw key, and both executors decode it
	// (Preparer.Decode) instead of preparing the key again: KL must
	// implement wire.Marshaler and *KL wire.Unmarshaler, and KL == KR.
	// The result must join, assign and dedup as the key it came from
	// does. dst is the zero KL for a task's first key, then the key
	// Rekey returned for the key before, already encoded and unused:
	// like AssignLeft's dst, its storage is Rekey's to build the result
	// in, so a task rekeys without allocating. The result must not
	// share storage with key. Decode reads each key into the KL that
	// holds the key decoded before it, which is still in use:
	// UnmarshalWire may carve from that key's spare capacity but must
	// not write what it holds.
	Rekey func(key KL, plan P, dst KL) KL

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
	// emitted pair set must equal what Verify would accept, and the key
	// slices must not be retained after LocalJoin returns.
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
	if spec.Prepare != nil && reflect.TypeFor[KL]() != reflect.TypeFor[KR]() {
		panic(fmt.Sprintf("core: spec %q sets Prepare but its keys differ: %v and %v",
			spec.Name, reflect.TypeFor[KL](), reflect.TypeFor[KR]()))
	}
	if spec.Rekey != nil {
		if reflect.TypeFor[KL]() != reflect.TypeFor[KR]() {
			panic(fmt.Sprintf("core: spec %q sets Rekey but its keys differ: %v and %v",
				spec.Name, reflect.TypeFor[KL](), reflect.TypeFor[KR]()))
		}
		_, m := any(*new(KL)).(wire.Marshaler)
		_, u := any(new(KL)).(wire.Unmarshaler)
		if !m || !u {
			panic(fmt.Sprintf("core: spec %q sets Rekey but %v has no wire codec", spec.Name, reflect.TypeFor[KL]()))
		}
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
// library expects. Verify calls it twice per candidate pair, so the
// fallback for a raw key stays off this path, in prepareCast.
func castKey[K any](w Join, side Side, key any) K {
	if k, ok := key.(K); ok {
		return k
	}
	return prepareCast[K](w, side, key)
}

// prepareCast prepares a key that is not yet a K: a raw key. Anything
// else fails loudly: a kind mismatch means the CREATE JOIN signature and
// the query disagree, which the planner should have rejected.
func prepareCast[K any](w Join, side Side, key any) K {
	if k, ok := w.(interface{ prepareKey(any) any }).prepareKey(key).(K); ok {
		return k
	}
	panic(fmt.Sprintf("core: join %q %s key is %T, want %T", w.Descriptor().Name, side, key, *new(K)))
}

// prepareKey is Prepare boxed, or raw unchanged without one. Prepare
// serves both sides, which Wrap made sure share one type.
func (w *wrapped[KL, KR, S, P]) prepareKey(raw any) any {
	if w.spec.Prepare == nil {
		return raw
	}
	return w.spec.Prepare(raw)
}

// preparer returns a task's slab-boxing preparer, or nil without
// Prepare and Rekey.
func (w *wrapped[KL, KR, S, P]) preparer(chunk int) keyPreparer {
	if w.spec.Prepare == nil && w.spec.Rekey == nil {
		return nil
	}
	p := &slabPreparer[KL]{fn: w.spec.Prepare, typ: slab.TypeWord[KL](), chunk: chunk}
	if w.spec.Rekey != nil {
		p.u = any(&p.slot).(wire.Unmarshaler) // checked by Wrap
	}
	return p
}

// slabPreparer is a Preparer's work for a spec with Prepare or Rekey:
// prepared keys, and under Rekey decoded ones, are boxed from a chunked
// slab, each written to the next slot and the interface built over it,
// unless K boxes without allocating (typ nil).
type slabPreparer[K any] struct {
	typ   unsafe.Pointer
	chunk int
	slots slab.Slab[K]
	fn    func(raw any) K // nil: raw keys are K already

	// Decoding, for a spec with Rekey: u unmarshals each key into slot,
	// over the key decoded before it, and slot is then boxed.
	slot K
	u    wire.Unmarshaler
	d    wire.Decoder
}

func (p *slabPreparer[K]) box(k K) any {
	if p.typ == nil {
		return k
	}
	return slab.Box(p.typ, unsafe.Pointer(p.slots.Put(k, p.chunk)))
}

func (p *slabPreparer[K]) prepare(raw any) any {
	if p.fn == nil {
		return raw
	}
	return p.box(p.fn(raw))
}

func (p *slabPreparer[K]) decode(col string) (any, error) {
	p.d.Reset(unsafe.Slice(unsafe.StringData(col), len(col)))
	if err := p.u.UnmarshalWire(&p.d); err != nil {
		return nil, err
	}
	if n := p.d.Remaining(); n != 0 {
		return nil, fmt.Errorf("core: %d bytes left after a shipped key", n)
	}
	return p.box(p.slot), nil
}

func (w *wrapped[KL, KR, S, P]) rekeys() bool { return w.spec.Rekey != nil }

// rekeyAll is AssignAll's typed loop under Rekey: each prepared key is
// rekeyed with the plan, assigned, and its encoding handed to sink with
// its bucket ids, the plan asserted once and no key boxed on the way.
// Once a key is encoded nothing uses it, so Rekey gets it as the next
// key's dst.
func (w *wrapped[KL, KR, S, P]) rekeyAll(side Side, keys []any, plan PPlan, rec *int, sink AssignSink) error {
	p := plan.(P)
	e := &shipEncoder[KL]{e: *wire.NewEncoder(64)}
	e.m = any(&e.slot).(wire.Marshaler) // checked by Wrap
	var ids []BucketID
	var k KL
	for i, key := range keys {
		*rec = i
		k = w.spec.Rekey(castKey[KL](w, side, key), p, k)
		if side == Right && w.spec.AssignRight != nil {
			ids = w.spec.AssignRight(*(*KR)(unsafe.Pointer(&k)), p, ids[:0]) // KL == KR, checked by Wrap
		} else {
			ids = w.spec.AssignLeft(k, p, ids[:0])
		}
		if err := sink.Assigned(i, ids, e.ship(k, len(keys)-i)); err != nil {
			return err
		}
	}
	return nil
}

// shipEncoder writes the keys one assign task ships: each key's wire
// encoding is copied into the next bytes of a chunk and handed out as a
// string over them, so the strings cost one allocation per chunk.
type shipEncoder[K any] struct {
	slot     K
	m        wire.Marshaler // marshals slot
	e        wire.Encoder
	bytes    slab.Slab[byte]
	n, total int // keys shipped so far, and their bytes
}

// shipChunkMax caps a shipped-key chunk at 32 KiB, the largest size the
// runtime allocates without rounding up to whole pages.
const shipChunkMax = 32 << 10

// ship returns k's encoding; left counts the keys the task still ships,
// k included, and sizes a new chunk: those keys at 5/4 of the mean
// encoded size so far, within shipChunkMax, so a task's keys usually
// take one chunk.
func (s *shipEncoder[K]) ship(k K, left int) string {
	s.slot = k
	s.e.Reset()
	s.m.MarshalWire(&s.e)
	b := s.e.Bytes()
	s.n++
	s.total += len(b)
	out := s.bytes.Carve(len(b), min(s.total*5/4/s.n*left, shipChunkMax))
	copy(out, b)
	return unsafe.String(unsafe.SliceData(out), len(out))
}

func (w *wrapped[KL, KR, S, P]) LocalAggregate(side Side, key any, s Summary) Summary {
	return w.localAgg(side, key, s.(S))
}

// localAggregateAll is LocalAggregate over a whole partition: the typed
// summary is unboxed and boxed once, not once per key.
func (w *wrapped[KL, KR, S, P]) localAggregateAll(side Side, keys []any, s Summary, rec *int) Summary {
	sum := s.(S)
	for i, k := range keys {
		*rec = i
		sum = w.localAgg(side, k, sum)
	}
	return sum
}

func (w *wrapped[KL, KR, S, P]) localAgg(side Side, key any, sum S) S {
	if side == Right && w.spec.LocalAggRight != nil {
		return w.spec.LocalAggRight(castKey[KR](w, side, key), sum)
	}
	return w.spec.LocalAggLeft(castKey[KL](w, side, key), sum)
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
		return w.spec.AssignRight(castKey[KR](w, side, key), p, dst)
	}
	// Left side, or a symmetric assign: the key must be a KL.
	return w.spec.AssignLeft(castKey[KL](w, side, key), p, dst)
}

func (w *wrapped[KL, KR, S, P]) Match(b1, b2 BucketID) bool {
	if w.spec.Match == nil {
		return DefaultMatch(b1, b2)
	}
	return w.spec.Match(b1, b2)
}

func (w *wrapped[KL, KR, S, P]) Verify(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool {
	return w.spec.Verify(b1,
		castKey[KL](w, Left, leftKey), b2,
		castKey[KR](w, Right, rightKey), plan.(P))
}

func (w *wrapped[KL, KR, S, P]) Dedup(b1 BucketID, leftKey any, b2 BucketID, rightKey any, plan PPlan) bool {
	switch w.spec.Dedup {
	case DedupCustom:
		return w.spec.DedupFn(b1,
			castKey[KL](w, Left, leftKey), b2,
			castKey[KR](w, Right, rightKey), plan.(P))
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
		ls[i] = castKey[KL](w, Left, k)
	}
	rs := make([]KR, len(rightKeys))
	for i, k := range rightKeys {
		rs[i] = castKey[KR](w, Right, k)
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
