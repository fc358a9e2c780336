package types

import (
	"bytes"
	"strings"
	"testing"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// FuzzDecodeRecords drives the shuffle payload decoder with arbitrary
// bytes. The decoder guards every cross-node transfer, so the
// contract is strict: it must never panic or over-allocate on damaged
// input, and anything it accepts must survive a re-encode round trip.
func FuzzDecodeRecords(f *testing.F) {
	// Seed with the corrupt_test.go corpus shapes: valid batches of
	// every value kind, truncations, an absurd record count, and
	// single-byte damage.
	rich := []Record{
		{NewInt64(-7), NewString("seed"), NewBool(true)},
		{NewFloat64(3.25), NewPoint(geo.Point{X: 1, Y: 2}), Null},
		{NewInterval(interval.Interval{Start: 10, End: 20}),
			NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}))},
	}
	f.Add(EncodeRecords(rich))
	f.Add(EncodeRecords(nil))
	f.Add(EncodeRecords(batch(3)))
	full := EncodeRecords(batch(5))
	f.Add(full[:len(full)/2])                                           // truncated mid-record
	f.Add(full[:1])                                                     // truncated mid-header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // ~2^63 records claimed
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		// Accepted input must round-trip: decode(encode(decode(x)))
		// equals decode(x) field for field.
		again, err := DecodeRecords(EncodeRecords(recs))
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(recs))
		}
		for i := range recs {
			if len(again[i]) != len(recs[i]) {
				t.Fatalf("record %d: field count %d != %d", i, len(again[i]), len(recs[i]))
			}
			for j := range recs[i] {
				if !again[i][j].Equal(recs[i][j]) && !sameWire(again[i][j], recs[i][j]) {
					t.Fatalf("record %d field %d: %v != %v", i, j, again[i][j], recs[i][j])
				}
			}
		}
	})
}

// isNaN reports whether a value is a float NaN (the one value that is
// never Equal to itself).
func isNaN(v Value) bool {
	return v.Kind() == KindFloat64 && v.Float64() != v.Float64()
}

// sameWire reports whether two values have identical wire encodings —
// the equality that matters for codec round trips. Unlike Equal it
// treats bit-identical NaNs buried inside composite values (geometry
// coordinates, interval-derived floats) as equal.
func sameWire(a, b Value) bool {
	ea, eb := wire.NewEncoder(32), wire.NewEncoder(32)
	a.MarshalWire(ea)
	b.MarshalWire(eb)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// rectAndEmptyList seeds the fuzzers with the boxed rect and the
// zero-length list, the payloads the compact Value holds behind its
// pointer word.
func rectAndEmptyList() []Record {
	return []Record{
		{NewRect(geo.Rect{MinX: -1, MinY: -2, MaxX: 3, MaxY: 4}), NewList([]Value{})},
		{NewRect(geo.Rect{MaxX: 1, MaxY: 1}), NewList(nil)},
	}
}

// FuzzMemSize pins the memory accounting against arbitrary decoded
// records: estimates must be positive and grow with payload size,
// since the budget enforcement divides by them.
func FuzzMemSize(f *testing.F) {
	f.Add(EncodeRecords(batch(2)), 10)
	f.Add(EncodeRecords(nil), 1000)
	f.Add(EncodeRecords(rectAndEmptyList()), 3)
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		if pad < 0 {
			pad = -pad
		}
		pad %= 1 << 16
		for _, r := range recs {
			sz := r.MemSize()
			if sz <= 0 {
				t.Fatalf("MemSize = %d for non-nil record", sz)
			}
			grown := append(append(Record{}, r...), NewString(strings.Repeat("p", pad)))
			if grown.MemSize() < sz+int64(pad) {
				t.Fatalf("MemSize did not grow with payload: %d -> %d (pad %d)",
					sz, grown.MemSize(), pad)
			}
		}
	})
}
