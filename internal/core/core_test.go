package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fudj/internal/wire"
)

// testEquiJoin is a trivial single-assign, default-match FUDJ over
// int64 keys modulo a bucket count carried in the plan. Its verify is
// exact key equality, so it behaves like a distributed hash join.
type equiSummary struct {
	Count int64
}

type equiPlan struct {
	Buckets int64
}

func newEquiJoin() Join {
	return Wrap(Spec[int64, int64, equiSummary, equiPlan]{
		Name:       "test_equi",
		Params:     0,
		NewSummary: func() equiSummary { return equiSummary{} },
		LocalAggLeft: func(k int64, s equiSummary) equiSummary {
			s.Count++
			return s
		},
		GlobalAgg: func(a, b equiSummary) equiSummary { return equiSummary{Count: a.Count + b.Count} },
		Divide: func(l, r equiSummary, _ []any) (equiPlan, error) {
			n := (l.Count + r.Count) / 4
			if n < 1 {
				n = 1
			}
			return equiPlan{Buckets: n}, nil
		},
		AssignLeft: func(k int64, p equiPlan, dst []BucketID) []BucketID {
			return append(dst, int(((k%p.Buckets)+p.Buckets)%p.Buckets))
		},
		Verify: func(_ BucketID, l int64, _ BucketID, r int64, _ equiPlan) bool { return l == r },
	})
}

// rangeSummary/rangePlan define a 1-D multi-assign overlap join over
// [2]int64 ranges, with a custom (theta) MATCH — the minimal shape of
// the interval FUDJ, used here to exercise the multi-join path.
type rangeSummary struct {
	Min, Max int64
}

type rangePlan struct {
	Min, Width int64
	N          int
}

func (p rangePlan) bucket(v int64) int {
	b := int((v - p.Min) / p.Width)
	if b < 0 {
		b = 0
	}
	if b >= p.N {
		b = p.N - 1
	}
	return b
}

func newRangeJoin(dedup DedupMode) Join {
	return Wrap(Spec[[2]int64, [2]int64, rangeSummary, rangePlan]{
		Name:       "test_range",
		Params:     1, // bucket count
		Dedup:      dedup,
		NewSummary: func() rangeSummary { return rangeSummary{Min: 1 << 60, Max: -(1 << 60)} },
		LocalAggLeft: func(k [2]int64, s rangeSummary) rangeSummary {
			if k[0] < s.Min {
				s.Min = k[0]
			}
			if k[1] > s.Max {
				s.Max = k[1]
			}
			return s
		},
		GlobalAgg: func(a, b rangeSummary) rangeSummary {
			if b.Min < a.Min {
				a.Min = b.Min
			}
			if b.Max > a.Max {
				a.Max = b.Max
			}
			return a
		},
		Divide: func(l, r rangeSummary, params []any) (rangePlan, error) {
			n := params[0].(int)
			min, max := l.Min, l.Max
			if r.Min < min {
				min = r.Min
			}
			if r.Max > max {
				max = r.Max
			}
			w := (max - min + 1) / int64(n)
			if w < 1 {
				w = 1
			}
			return rangePlan{Min: min, Width: w, N: n}, nil
		},
		// Multi-assign: a range is copied to every bucket it spans.
		AssignLeft: func(k [2]int64, p rangePlan, dst []BucketID) []BucketID {
			for b := p.bucket(k[0]); b <= p.bucket(k[1]); b++ {
				dst = append(dst, b)
			}
			return dst
		},
		Match: func(b1, b2 BucketID) bool { return b1 == b2 }, // custom, but equality
		Verify: func(_ BucketID, l [2]int64, _ BucketID, r [2]int64, _ rangePlan) bool {
			return l[0] <= r[1] && l[1] >= r[0]
		},
	})
}

func TestWrapValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("no name", func() {
		Wrap(Spec[int64, int64, int, int]{})
	})
	mustPanic("missing verify", func() {
		Wrap(Spec[int64, int64, int, int]{
			Name:         "x",
			NewSummary:   func() int { return 0 },
			LocalAggLeft: func(int64, int) int { return 0 },
			GlobalAgg:    func(a, b int) int { return 0 },
			Divide:       func(int, int, []any) (int, error) { return 0, nil },
			AssignLeft:   func(int64, int, []BucketID) []BucketID { return nil },
		})
	})
	mustPanic("custom dedup without fn", func() {
		Wrap(Spec[int64, int64, int, int]{
			Name:         "x",
			Dedup:        DedupCustom,
			NewSummary:   func() int { return 0 },
			LocalAggLeft: func(int64, int) int { return 0 },
			GlobalAgg:    func(a, b int) int { return 0 },
			Divide:       func(int, int, []any) (int, error) { return 0, nil },
			AssignLeft:   func(int64, int, []BucketID) []BucketID { return nil },
			Verify:       func(BucketID, int64, BucketID, int64, int) bool { return true },
		})
	})
	mustPanic("prepare with differing key types", func() {
		Wrap(Spec[int64, string, int, int]{
			Name:         "x",
			Prepare:      func(any) int64 { return 0 },
			NewSummary:   func() int { return 0 },
			LocalAggLeft: func(int64, int) int { return 0 },
			GlobalAgg:    func(a, b int) int { return 0 },
			Divide:       func(int, int, []any) (int, error) { return 0, nil },
			AssignLeft:   func(int64, int, []BucketID) []BucketID { return nil },
			Verify:       func(BucketID, int64, BucketID, string, int) bool { return true },
		})
	})
}

// TestPrepareKey pins the two key paths of a spec with Prepare: the
// engine's, which prepares once through a Preparer, and a caller of the
// untyped methods passing raw keys, which castKey prepares per call.
// Joins without Prepare get the raw key back.
func TestPrepareKey(t *testing.T) {
	var prepared int
	j := Wrap(Spec[[]int64, []int64, int64, int64]{
		Name: "digits",
		Prepare: func(raw any) []int64 {
			prepared++
			return []int64{raw.(int64) % 10}
		},
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(k []int64, s int64) int64 { return s + k[0] },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(l, r int64, _ []any) (int64, error) { return l + r, nil },
		AssignLeft:   func(k []int64, _ int64, dst []BucketID) []BucketID { return append(dst, int(k[0])) },
		Verify:       func(_ BucketID, l []int64, _ BucketID, r []int64, _ int64) bool { return l[0] == r[0] },
	})
	prep := NewPreparer(j, 1)
	k := prep.Prepare(int64(42))
	if got, ok := k.([]int64); !ok || len(got) != 1 || got[0] != 2 || prepared != 1 {
		t.Fatalf("Prepare = %v (%d calls), want [2] from one call", k, prepared)
	}
	if !j.Verify(0, k, 0, prep.Prepare(int64(12)), int64(0)) || prepared != 2 {
		t.Errorf("prepared keys: Verify or call count (%d) wrong", prepared)
	}
	if !j.Verify(0, int64(42), 0, int64(12), int64(0)) || prepared != 4 {
		t.Errorf("raw keys: Verify or call count (%d) wrong", prepared)
	}
	if got := j.Assign(Left, int64(7), int64(0), nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("raw-key Assign = %v, want [7]", got)
	}
	for _, raw := range []Join{newEquiJoin(), struct{ Join }{j}} {
		if got := NewPreparer(raw, 1).Prepare(int64(42)); got != int64(42) {
			t.Errorf("Prepare without Spec.Prepare = %v, want the raw key", got)
		}
	}
}

// digitKey is a prepared key of an interface-typed spec.
type digitKey int64

func (d digitKey) String() string { return string(rune('0' + d)) }

// TestPreparerInterfaceKey pins a Preparer over a spec whose key type
// is an interface: its keys keep Prepare's dynamic type, as boxing
// Prepare's result would, and the typed functions take them.
func TestPreparerInterfaceKey(t *testing.T) {
	j := Wrap(Spec[fmt.Stringer, fmt.Stringer, int64, int64]{
		Name:         "stringers",
		Prepare:      func(raw any) fmt.Stringer { return digitKey(raw.(int64) % 10) },
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ fmt.Stringer, s int64) int64 { return s },
		GlobalAgg:    func(a, _ int64) int64 { return a },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(_ fmt.Stringer, _ int64, dst []BucketID) []BucketID { return append(dst, 0) },
		Verify: func(_ BucketID, l fmt.Stringer, _ BucketID, r fmt.Stringer, _ int64) bool {
			return l.String() == r.String()
		},
	})
	p := NewPreparer(j, 4)
	l, r := p.Prepare(int64(42)), p.Prepare(int64(12))
	if l != any(digitKey(2)) || r != any(digitKey(2)) {
		t.Fatalf("prepared keys %#v %#v, want digitKey(2) twice", l, r)
	}
	if !j.Verify(0, l, 0, r, int64(0)) {
		t.Error("Verify rejected two prepared keys of one digit")
	}
}

func TestDescriptor(t *testing.T) {
	eq := newEquiJoin()
	d := eq.Descriptor()
	if !d.DefaultMatch {
		t.Error("equi join should report DefaultMatch")
	}
	if !d.SymmetricSummarize {
		t.Error("equi join should report SymmetricSummarize (no right-side funcs)")
	}
	rg := newRangeJoin(DedupAvoidance)
	if rg.Descriptor().DefaultMatch {
		t.Error("range join overrides Match, must not report DefaultMatch")
	}
	if rg.Descriptor().Dedup != DedupAvoidance {
		t.Error("dedup mode lost")
	}
}

func TestStandaloneEquiJoin(t *testing.T) {
	left := []any{int64(1), int64(2), int64(3), int64(2)}
	right := []any{int64(2), int64(3), int64(5)}
	var got [][2]int64
	stats, err := RunStandalone(newEquiJoin(), left, right, nil, func(l, r any) {
		got = append(got, [2]int64{l.(int64), r.(int64)})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: 2-2 (x2 for the duplicate left 2), 3-3.
	if len(got) != 3 {
		t.Fatalf("got %d results %v, want 3", len(got), got)
	}
	for _, pair := range got {
		if pair[0] != pair[1] {
			t.Errorf("non-equal pair %v", pair)
		}
	}
	if stats.Results != 3 || stats.Verified != 3 {
		t.Errorf("stats = %v", stats)
	}
}

func TestStandaloneParamsMismatch(t *testing.T) {
	_, err := RunStandalone(newRangeJoin(DedupAvoidance), []any{[2]int64{0, 1}}, []any{[2]int64{0, 1}}, nil, func(any, any) {})
	if err == nil {
		t.Fatal("missing parameter should fail in Divide")
	}
}

// badKey encodes, but its decoder refuses every encoding.
type badKey int64

func (k badKey) MarshalWire(e *wire.Encoder) { e.Varint(int64(k)) }

func (k *badKey) UnmarshalWire(*wire.Decoder) error { return errors.New("bad key") }

// TestStandaloneReturnsDecodeError pins that RunStandalone decodes a
// rekeyed key as COMBINE does and returns a decode error as an error of
// the assign step, not as a *UDFError.
func TestStandaloneReturnsDecodeError(t *testing.T) {
	j := Wrap(Spec[badKey, badKey, int64, int64]{
		Name:         "bad_key",
		Rekey:        func(k badKey, _ int64, _ badKey) badKey { return k },
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ badKey, s int64) int64 { return s },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(_, _ int64, _ []any) (int64, error) { return 0, nil },
		AssignLeft:   func(_ badKey, _ int64, dst []BucketID) []BucketID { return append(dst, 0) },
		Verify:       func(BucketID, badKey, BucketID, badKey, int64) bool { return true },
	})
	keys := []any{badKey(1), badKey(2)}
	_, err := RunStandalone(j, keys, keys, nil, func(any, any) { t.Error("a pair was emitted") })
	var udf *UDFError
	if err == nil || errors.As(err, &udf) || !strings.Contains(err.Error(), "assign left: decode key 0: bad key") {
		t.Fatalf("got %v, want the left side's decode error", err)
	}
}

// bruteRanges computes the reference overlap-join result multiset.
func bruteRanges(left, right [][2]int64) map[[4]int64]int {
	out := map[[4]int64]int{}
	for _, l := range left {
		for _, r := range right {
			if l[0] <= r[1] && l[1] >= r[0] {
				out[[4]int64{l[0], l[1], r[0], r[1]}]++
			}
		}
	}
	return out
}

func runRange(t *testing.T, j Join, left, right [][2]int64, buckets int) (map[[4]int64]int, Stats) {
	t.Helper()
	la := make([]any, len(left))
	for i, v := range left {
		la[i] = v
	}
	ra := make([]any, len(right))
	for i, v := range right {
		ra[i] = v
	}
	got := map[[4]int64]int{}
	stats, err := RunStandalone(j, la, ra, []any{buckets}, func(l, r any) {
		lv, rv := l.([2]int64), r.([2]int64)
		got[[4]int64{lv[0], lv[1], rv[0], rv[1]}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func randRanges(rng *rand.Rand, n int, span, maxLen int64) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		s := rng.Int63n(span)
		out[i] = [2]int64{s, s + rng.Int63n(maxLen)}
	}
	return out
}

// Property: with duplicate avoidance, the multi-assign range join
// produces exactly the brute-force result multiset — no misses, no
// duplicates. This is the core correctness contract of the framework.
func TestStandaloneRangeJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, mode := range []DedupMode{DedupAvoidance, DedupElimination} {
		for trial := 0; trial < 15; trial++ {
			left := randRanges(rng, 60, 1000, 120)
			right := randRanges(rng, 40, 1000, 120)
			want := bruteRanges(left, right)
			got, _ := runRange(t, newRangeJoin(mode), left, right, 8)
			// Multiset equality modulo duplicate *values*: identical range
			// values join multiple times legitimately, so compare per-key
			// counts directly — they must agree.
			if len(got) != len(want) {
				t.Fatalf("mode %v trial %d: %d distinct pairs, want %d", mode, trial, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("mode %v trial %d: pair %v count %d, want %d", mode, trial, k, got[k], n)
				}
			}
		}
	}
}

// With dedup disabled, multi-assign must over-produce whenever a
// joining pair co-occupies several buckets.
func TestStandaloneRangeJoinDedupNoneOverproduces(t *testing.T) {
	left := [][2]int64{{0, 500}}  // spans many buckets
	right := [][2]int64{{0, 500}} // same
	got, stats := runRange(t, newRangeJoin(DedupNone), left, right, 8)
	if got[[4]int64{0, 500, 0, 500}] <= 1 {
		t.Errorf("expected duplicated results without dedup, got %v (stats %v)", got, stats)
	}
	gotAvoid, statsAvoid := runRange(t, newRangeJoin(DedupAvoidance), left, right, 8)
	if gotAvoid[[4]int64{0, 500, 0, 500}] != 1 {
		t.Errorf("avoidance should emit exactly once, got %v", gotAvoid)
	}
	if statsAvoid.Deduped == 0 {
		t.Error("avoidance should report suppressed duplicates")
	}
}

// Elimination-mode dedup cannot distinguish equal-valued records from
// different input positions incorrectly: it keys on input indexes.
func TestStandaloneEliminationKeepsEqualValues(t *testing.T) {
	// Two identical left records must each produce a result.
	left := [][2]int64{{0, 100}, {0, 100}}
	right := [][2]int64{{50, 60}}
	got, _ := runRange(t, newRangeJoin(DedupElimination), left, right, 4)
	if got[[4]int64{0, 100, 50, 60}] != 2 {
		t.Errorf("identical records collapsed: %v", got)
	}
}

func TestStandaloneSelfJoinSummaryReuse(t *testing.T) {
	data := []any{int64(1), int64(2), int64(3)}
	stats, err := RunStandalone(newEquiJoin(), data, data, nil, func(any, any) {})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SummaryReused {
		t.Error("self-join with symmetric summarize should reuse the summary")
	}
	other := []any{int64(1), int64(2), int64(3)}
	stats, err = RunStandalone(newEquiJoin(), data, other, nil, func(any, any) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SummaryReused {
		t.Error("distinct inputs must not reuse the summary")
	}
}

func TestKeyCastPanicsWithContext(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic on key type mismatch")
		}
	}()
	j := newEquiJoin()
	j.LocalAggregate(Left, "not an int64", j.NewSummary(Left))
}

func TestStateCodecGob(t *testing.T) {
	j := newEquiJoin()
	buf, err := j.EncodeSummary(equiSummary{Count: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := j.DecodeSummary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.(equiSummary).Count != 42 {
		t.Errorf("summary round trip = %+v", s)
	}
	pbuf, err := j.EncodePlan(equiPlan{Buckets: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := j.DecodePlan(pbuf)
	if err != nil {
		t.Fatal(err)
	}
	if p.(equiPlan).Buckets != 7 {
		t.Errorf("plan round trip = %+v", p)
	}
}

// wireSummary exercises the wire fast path of the state codec.
type wireSummary struct {
	N int64
}

func (s wireSummary) MarshalWire(e *wire.Encoder) { e.Varint(s.N) }
func (s *wireSummary) UnmarshalWire(d *wire.Decoder) error {
	var err error
	s.N, err = d.Varint()
	return err
}

func TestStateCodecWireFastPath(t *testing.T) {
	j := Wrap(Spec[int64, int64, wireSummary, equiPlan]{
		Name:         "wire_codec",
		NewSummary:   func() wireSummary { return wireSummary{} },
		LocalAggLeft: func(k int64, s wireSummary) wireSummary { s.N++; return s },
		GlobalAgg:    func(a, b wireSummary) wireSummary { return wireSummary{N: a.N + b.N} },
		Divide:       func(l, r wireSummary, _ []any) (equiPlan, error) { return equiPlan{Buckets: 1}, nil },
		AssignLeft:   func(int64, equiPlan, []BucketID) []BucketID { return []BucketID{0} },
		Verify:       func(BucketID, int64, BucketID, int64, equiPlan) bool { return true },
	})
	buf, err := j.EncodeSummary(wireSummary{N: 99})
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != codecWire {
		t.Fatalf("expected wire codec tag, got %d", buf[0])
	}
	s, err := j.DecodeSummary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.(wireSummary).N != 99 {
		t.Errorf("wire summary round trip = %+v", s)
	}
}

func TestDecodeStateErrors(t *testing.T) {
	j := newEquiJoin()
	if _, err := j.DecodeSummary(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, err := j.DecodeSummary([]byte{9, 1, 2}); err == nil {
		t.Error("unknown tag should error")
	}
}

func TestLibrary(t *testing.T) {
	lib := NewLibrary("flexiblejoins")
	if lib.Name() != "flexiblejoins" {
		t.Error("Name")
	}
	if err := lib.Register("equi.EquiJoin", newEquiJoin); err != nil {
		t.Fatal(err)
	}
	if err := lib.Register("equi.EquiJoin", newEquiJoin); err == nil {
		t.Error("duplicate class should error")
	}
	if err := lib.Register("", newEquiJoin); err == nil {
		t.Error("empty class should error")
	}
	c, err := lib.Resolve("equi.EquiJoin")
	if err != nil || c == nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, err := lib.Resolve("missing.Class"); err == nil {
		t.Error("missing class should error")
	}
	if got := lib.Classes(); len(got) != 1 || got[0] != "equi.EquiJoin" {
		t.Errorf("Classes = %v", got)
	}
}

func TestDedupModeString(t *testing.T) {
	if DedupAvoidance.String() != "avoidance" || DedupNone.String() != "none" ||
		DedupCustom.String() != "custom" || DedupElimination.String() != "elimination" {
		t.Error("DedupMode strings")
	}
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("Side strings")
	}
}
