package textsim

import (
	"maps"
	"math"
	"testing"

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

func marshal(v wire.Marshaler) []byte {
	e := wire.NewEncoder(64)
	v.MarshalWire(e)
	return e.Bytes()
}
