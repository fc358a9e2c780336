package textsim

import (
	"maps"
	"math"
	"slices"
	"testing"

	"fudj/internal/text"
	"fudj/internal/wire"
)

// FuzzDecodeState drives the plan and summary decoders with arbitrary
// bytes. The plan is reloaded from checkpoint files under
// WithCheckpoints, so the contract is: decoding never panics, a count
// the input cannot hold is rejected before anything is allocated for
// it, and whatever decodes re-encodes to the same plan or summary.
func FuzzDecodeState(f *testing.F) {
	j := New()
	plan, err := j.Divide(Summary{"lake": 3, "trail": 1}, Summary{"lake": 2, "river": 7}, []any{0.8})
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []wire.Marshaler{plan.(Plan), Summary{"lake": 5, "trail": 1, "river": 7}} {
		e := wire.NewEncoder(64)
		v.MarshalWire(e)
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:e.Len()/2])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a plan claiming 2^32 tokens
	// A summary repeating a token (the later count wins) and holding
	// the empty token, which the decoders slice from their one copy.
	e := wire.NewEncoder(32)
	e.Uvarint(4)
	for _, tok := range []string{"lake", "", "lake", "trail"} {
		e.String(tok)
		e.Uvarint(uint64(len(tok)))
	}
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if err := p.UnmarshalWire(wire.NewDecoder(data)); err == nil {
			var again Plan
			if err := again.UnmarshalWire(wire.NewDecoder(marshal(p))); err != nil {
				t.Fatalf("re-decode of an accepted plan: %v", err)
			}
			if !maps.Equal(again.Ranks, p.Ranks) || again.NextRank != p.NextRank ||
				math.Float64bits(again.Threshold) != math.Float64bits(p.Threshold) {
				t.Fatalf("plan round trip: %+v != %+v", again, p)
			}
		}
		var s Summary
		if err := s.UnmarshalWire(wire.NewDecoder(data)); err == nil {
			var again Summary
			if err := again.UnmarshalWire(wire.NewDecoder(marshal(s))); err != nil {
				t.Fatalf("re-decode of an accepted summary: %v", err)
			}
			if !maps.Equal(again, s) {
				t.Fatalf("summary round trip: %v != %v", again, s)
			}
		}
	})
}

// FuzzDecodeKey drives the shipped-key decoder with arbitrary bytes. A
// key crosses the exchange, spill runs and checkpoints as the extended
// records' key column, so the contract is: decoding never panics, a
// count the input cannot hold is rejected before anything is allocated
// for it, ranks that do not increase and tokens out of order are
// rejected, and whatever decodes re-encodes to the same key, whether
// decoded into a zero Set or, as COMBINE decodes, into the Set holding
// the key decoded before it, which stays intact.
func FuzzDecodeKey(f *testing.F) {
	f.Add(marshal(text.Set{Ranks: []int32{3, 4, 90, 1 << 20}, Tokens: []string{"lake", "trail"}, Ranked: true}))
	f.Add([]byte{0x02, 0x05, 0x85})                               // cut inside the second rank's varint
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x00})             // a count claiming 2^32 ranks
	f.Add([]byte{0x02, 0x01, 0xff, 0xff, 0xff, 0xff, 0x07, 0x00}) // a delta past MaxInt32
	f.Add([]byte{0x00, 0x02, 0x01, 'b', 0x01, 'a'})               // an unsorted tail token
	f.Add([]byte{0x00, 0x02, 0x01, 'a', 0x01, 'a'})               // a repeated tail token
	f.Add([]byte{0x02, 0x07, 0x00, 0x00})                         // a repeated rank
	// prev is the last key accepted, which the next decodes over.
	var prev text.Set
	f.Fuzz(func(t *testing.T, data []byte) {
		var k text.Set
		err := k.UnmarshalWire(wire.NewDecoder(data))
		held, s := slices.Clone(prev.Ranks), prev
		serr := s.UnmarshalWire(wire.NewDecoder(data))
		if (serr == nil) != (err == nil) || (err == nil && !sameKey(s, k)) {
			t.Fatalf("decoded over the last key: %+v, %v; into a zero Set: %+v, %v", s, serr, k, err)
		}
		if !slices.Equal(prev.Ranks, held) {
			t.Fatalf("decoding over key %v overwrote it: %v", held, prev.Ranks)
		}
		if err != nil {
			return
		}
		for i := 1; i < len(k.Ranks); i++ {
			if k.Ranks[i] <= k.Ranks[i-1] {
				t.Fatalf("accepted ranks %v that do not increase", k.Ranks)
			}
		}
		if len(k.Ranks) > 0 && k.Ranks[0] < 0 {
			t.Fatalf("accepted a negative rank: %v", k.Ranks)
		}
		var again text.Set
		if err := again.UnmarshalWire(wire.NewDecoder(marshal(k))); err != nil {
			t.Fatalf("re-decode of an accepted key: %v", err)
		}
		if !sameKey(again, k) {
			t.Fatalf("key round trip: %+v != %+v", again, k)
		}
		prev = s
	})
}

func marshal(v wire.Marshaler) []byte {
	e := wire.NewEncoder(64)
	v.MarshalWire(e)
	return e.Bytes()
}
