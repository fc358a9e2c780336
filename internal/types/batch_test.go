package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// richRecords returns uniform-width records covering every value kind,
// including a kind-mixed column (col 3), reference-kind columns (col 4)
// and an all-Null column (col 8).
func richRecords() []Record {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})
	line := geo.NewLineString([]geo.Point{{X: 1, Y: 1}, {X: 2, Y: 3}})
	return []Record{
		{NewInt64(1), NewString("alpha"), NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
			NewInt64(7), NewPolygon(poly), NewBool(true), NewPoint(geo.Point{X: 5, Y: 6}),
			NewInterval(interval.Interval{Start: 3, End: 9}), Null, NewFloat64(2.5)},
		{NewInt64(2), NewString("beta"), NewRect(geo.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}),
			NewString("mixed"), NewLineString(line), NewBool(false), NewPoint(geo.Point{X: -1, Y: 0}),
			NewInterval(interval.Interval{Start: -5, End: 5}), Null, NewFloat64(-0.25)},
		{NewInt64(3), NewString(""), NewRect(geo.Rect{MinX: -3, MinY: -3, MaxX: 0, MaxY: 0}),
			Null, NewList([]Value{NewInt64(1), NewString("x")}), NewBool(true),
			NewPoint(geo.Point{X: 0, Y: 0}), NewInterval(interval.Interval{Start: 0, End: 0}),
			Null, NewFloat64(1e300)},
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("record %d width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("record %d field %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// richRows returns n rows of the richRecords shape: the three template
// rows cycled, with the int64, string and float64 columns varying by
// row so no two rows encode alike.
func richRows(n int) []Record {
	tmpl := richRecords()
	recs := make([]Record, n)
	for i := range recs {
		r := append(Record(nil), tmpl[i%len(tmpl)]...)
		r[0] = NewInt64(int64(i) - 7)
		r[1] = NewString(fmt.Sprintf("row-%d", i))
		r[9] = NewFloat64(float64(i) / 4)
		recs[i] = r
	}
	return recs
}

// codecSizes straddles the 64-row mark at which the decoder used to
// fork: the one decoder serves every frame size.
var codecSizes = []int{1, 63, 64, 1024}

func TestBatchRoundTripAllKinds(t *testing.T) {
	for _, n := range codecSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			recs := richRows(n)
			buf := EncodeBatch(recs, nil)
			if buf[0] != batchFormatColumnar {
				t.Fatalf("uniform records encoded with format 0x%02x, want columnar", buf[0])
			}
			// buf[1] is the width (10, one byte); the column tags follow.
			tags := buf[2 : 2+len(recs[0])]
			if tags[4] != batchGenericTag || tags[8] != byte(KindNull) {
				t.Fatalf("column tags % x: want a generic col 4 and a Null col 8", tags)
			}
			if mixed := n > 1; (tags[3] == batchGenericTag) != mixed {
				t.Fatalf("col 3 tag 0x%02x with %d rows, want generic = %v", tags[3], n, mixed)
			}
			got, err := DecodeBatch(buf, nil)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			sameRecords(t, got, recs)
		})
	}
	// The edge values through typed columns (string, float64, rect) and
	// generic ones (lists, polygons).
	t.Run("edges", func(t *testing.T) {
		edges := map[string]edgeCase{}
		for _, c := range edgeValues() {
			edges[c.name] = c
		}
		rows := [][]string{
			{"empty-string", "nan", "rect", "nil-list", "polygon"},
			{"empty-string", "negative-zero", "rect", "empty-list", "polygon"},
			{"empty-string", "nan", "rect", "nested-list", "polygon"},
		}
		recs := make([]Record, len(rows))
		for i, row := range rows {
			for _, name := range row {
				recs[i] = append(recs[i], edges[name].v)
			}
		}
		buf := EncodeBatch(recs, nil)
		want := []byte{byte(KindString), byte(KindFloat64), byte(KindRect), batchGenericTag, batchGenericTag}
		if tags := buf[2 : 2+len(want)]; !bytes.Equal(tags, want) {
			t.Fatalf("column tags % x, want % x", tags, want)
		}
		got, err := DecodeBatch(buf, nil)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		for i, row := range rows {
			for j, name := range row {
				sameEdgeValue(t, got[i][j], edges[name])
			}
		}
	})
}

// TestBatchRowWiseFallbackRagged covers the two row shapes the codec
// once needed a row-wise payload for. Zero-width rows are now an
// ordinary columnar frame; ragged rows never reach the codec, since
// catalog.CreateDataset refuses them
// (TestCreateDatasetRejectsRaggedRecords).
func TestBatchRowWiseFallbackRagged(t *testing.T) {
	// What a COUNT(*) over a cross join replicates: rows that carry no
	// column at all. They pad one zero byte each, as a Null column does,
	// so every strict prefix of the frame is rejected.
	t.Run("zero-width", func(t *testing.T) {
		recs := []Record{{}, {}, {}}
		buf := EncodeBatch(recs, nil)
		if got, want := hex.EncodeToString(buf), "010003000000"; got != want {
			t.Fatalf("EncodeBatch(3 zero-width rows) = %s, want %s", got, want)
		}
		got, err := DecodeBatch(buf, nil)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		sameRecords(t, got, recs)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeBatch(buf[:cut], nil); err == nil {
				t.Fatalf("zero-width frame cut at %d of %d decoded without error", cut, len(buf))
			}
		}
	})
}

// TestBatchGoldenBytes pins the wire format: spill runs and checkpoints
// written by one build are read back by the next, so any change to
// these bytes must be deliberate.
func TestBatchGoldenBytes(t *testing.T) {
	const golden = "" +
		"010a020407ffff01060900030302040605616c70686104626574610000000000" +
		"000000000000000000000000000000000000f03f000000000000f03f00000000" +
		"0000f03f000000000000f03f0000000000000040000000000000004000000000" +
		"000008c000000000000008c000000000000000000000000000000000020e0405" +
		"6d69786564000803000000000000000000000000000000000000000000001040" +
		"0000000000000000000000000000000000000000000010400b02000000000000" +
		"f03f000000000000f03f000000000000004000000000000008400a0202020401" +
		"7802000200000000000014400000000000001840000000000000f0bf00000000" +
		"00000000000000000000000000000000000000000612090a0000000000000000" +
		"0000000440000000000000d0bf9c7500883ce4377e"
	if got := hex.EncodeToString(EncodeBatch(richRecords(), nil)); got != golden {
		t.Fatalf("EncodeBatch(richRecords()) changed:\n got %s\nwant %s", got, golden)
	}
}

func TestBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil, nil), nil)
	if err != nil {
		t.Fatalf("DecodeBatch(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch decoded to %d records", len(got))
	}
}

func TestDecodeBatchCorruption(t *testing.T) {
	// The decoder reads a columnar frame to its last byte, so every
	// strict prefix must be rejected; a flipped byte may decode (a float
	// is a float) but must never panic or change the row count's bound.
	for _, n := range codecSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			buf := EncodeBatch(richRows(n), nil)
			step := len(buf)/199 + 1
			for cut := 0; cut < len(buf); cut += step {
				if _, err := DecodeBatch(buf[:cut], nil); err == nil {
					t.Fatalf("frame cut at %d of %d decoded without error", cut, len(buf))
				}
			}
			if _, err := DecodeBatch(buf[:len(buf)-1], nil); err == nil {
				t.Fatal("frame missing its last byte decoded without error")
			}
			for at := 0; at < len(buf); at += step {
				flipped := bytes.Clone(buf)
				flipped[at] ^= 0xff
				if recs, err := DecodeBatch(flipped, nil); err == nil && len(recs) > len(buf) {
					t.Fatalf("flip at %d decoded %d rows from %d bytes", at, len(recs), len(buf))
				}
			}
		})
	}

	if _, err := DecodeBatch([]byte{0x7c}, nil); err == nil {
		t.Fatal("unknown format byte decoded without error")
	}
	absurd := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // ~2^63
	for name, frame := range map[string]func(e *wire.Encoder){
		"absurd width": func(e *wire.Encoder) { e.Raw(absurd) },
		"absurd rows in one int64 column": func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Byte(byte(KindInt64))
			e.Raw(absurd)
		},
		// Two columns need two bytes per row: a claim the one-column
		// floor would let through must still be refused.
		"rows beyond the per-width floor": func(e *wire.Encoder) {
			e.Uvarint(2)
			e.Byte(byte(KindNull))
			e.Byte(byte(KindNull))
			e.Uvarint(3)
			e.Raw([]byte{0, 0, 0, 0})
		},
		"rows with no columns": func(e *wire.Encoder) {
			e.Uvarint(0)
			e.Uvarint(3)
		},
		// A reference kind is never written as a typed column.
		"typed polygon column": func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Byte(byte(KindPolygon))
			e.Uvarint(0)
		},
		"column tag past the last kind": func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Byte(byte(len(kindNames)))
			e.Uvarint(0)
		},
	} {
		e := wire.NewEncoder(16)
		e.Byte(batchFormatColumnar)
		frame(e)
		if _, err := DecodeBatch(e.Bytes(), nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestBatchScratchReuseAcrossDecodes shares one scratch across frames of
// different widths: the tag buffer grows and shrinks, and records an
// earlier decode returned stay intact.
func TestBatchScratchReuseAcrossDecodes(t *testing.T) {
	scratch := NewBatch(0)
	var kept [][]Record
	shapes := [][]Record{batch(32), richRows(70), batch(3), richRecords()}
	for round, recs := range shapes {
		got, err := DecodeBatch(EncodeBatch(recs, scratch), scratch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameRecords(t, got, recs)
		kept = append(kept, got)
	}
	for round, recs := range shapes {
		sameRecords(t, kept[round], recs)
	}
}

// TestDecodeBatchStringsDoNotAliasFrame pins that a string column's one
// copy is a copy: overwriting the frame after decoding leaves every
// string as it was, in a column mixing empty and non-empty strings and
// in a column of only empty strings.
func TestDecodeBatchStringsDoNotAliasFrame(t *testing.T) {
	mixed := []string{"alpha", "", "beta gamma", "", strings.Repeat("z", 300), "ω"}
	recs := make([]Record, len(mixed))
	for i, s := range mixed {
		recs[i] = Record{NewString(s), NewString(""), NewInt64(int64(i))}
	}
	frame := EncodeBatch(recs, nil)
	got, err := DecodeBatch(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'x'
	}
	sameRecords(t, got, recs)
	for i, r := range got {
		if r[0].Str() != mixed[i] || r[1].Str() != "" {
			t.Errorf("row %d = %q, %q after overwriting the frame, want %q, \"\"", i, r[0].Str(), r[1].Str(), mixed[i])
		}
	}
}

// hexagons returns n records of an id and a six-vertex polygon, the
// shape of the parks the spatial workloads ship.
func hexagons(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		x := float64(i)
		recs[i] = Record{NewInt64(int64(i)), NewPolygon(geo.NewPolygon([]geo.Point{
			{X: x, Y: 0}, {X: x + 2, Y: 0}, {X: x + 3, Y: 1}, {X: x + 2, Y: 2}, {X: x, Y: 2}, {X: x - 1, Y: 1},
		}))}
	}
	return recs
}

// TestDecodeBatchPolygonsAllocatePerFrame pins the column-scoped shape
// slabs: decoding a frame of n polygons allocates the arenas, one
// polygon chunk per shapeChunk and one per 8 of the rest (the sizes a
// chunk with pointers fills exactly: 32 KiB, or at most 512 bytes with
// no header), and hexagon rings in chunks of 256, 128, … rings, where a
// polygon and a ring of their own cost 2n. The chunks waste no byte:
// the frame costs what its ids and n lone 64-byte polygons and 96-byte
// rings cost. Each ring is full at cap == len, so appending to one
// leaves its neighbour alone.
func TestDecodeBatchPolygonsAllocatePerFrame(t *testing.T) {
	const n = 1000
	recs := hexagons(n)
	frame := EncodeBatch(recs, nil)
	scratch := NewBatch(2)
	var got []Record
	decode := func() {
		var err error
		if got, err = DecodeBatch(frame, scratch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, decode)
	bound := float64(2 + n/shapeChunk + (n%shapeChunk+7)/8 + (n+255)/256 + 8)
	if allocs > bound {
		t.Errorf("decoding %d polygons allocated %.0f times, want at most %.0f", n, allocs, bound)
	}
	ids := make([]Record, n)
	for i := range ids {
		ids[i] = Record{NewInt64(int64(i)), Null}
	}
	idFrame := EncodeBatch(ids, nil)
	lone := int64(unsafe.Sizeof(geo.Polygon{}) + 6*unsafe.Sizeof(geo.Point{}))
	if b, want := allocBytes(decode), allocBytes(func() { DecodeBatch(idFrame, scratch) })+n*lone; b > want {
		t.Errorf("decoding %d polygons allocated %d bytes, want at most %d", n, b, want)
	}
	sameRecords(t, got, recs)
	for i, r := range got {
		p := r[1].Polygon()
		if len(p.Ring) != 6 || cap(p.Ring) != 6 || p.MBR() != recs[i][1].Polygon().MBR() {
			t.Fatalf("polygon %d: ring len %d cap %d MBR %v", i, len(p.Ring), cap(p.Ring), p.MBR())
		}
	}
	first := got[0][1].Polygon()
	_ = append(first.Ring, geo.Point{X: -9, Y: -9})
	if got[1][1].Polygon().Ring[0] != (geo.Point{X: 1, Y: 0}) {
		t.Error("appending to one decoded ring wrote into its neighbour")
	}
}

// TestDecodeBatchRectsAllocatePerFrame pins that decoded rects are
// carved per column, as polygons are: a frame of 1 000 rects, in a
// typed rect column and in a generic column beside nulls, allocates a
// handful of times, where a rect of its own per cell costs 1 000 each.
// The decoded rects keep their values and are distinct cells.
func TestDecodeBatchRectsAllocatePerFrame(t *testing.T) {
	const n = 1000
	typed, generic := make([]Record, n), make([]Record, n)
	for i := range typed {
		r := geo.Rect{MinX: float64(i), MinY: 1, MaxX: float64(i) + 2, MaxY: 3}
		typed[i] = Record{NewInt64(int64(i)), NewRect(r)}
		generic[i] = Record{NewInt64(int64(i)), NewRect(r)}
		if i%2 == 1 {
			generic[i][1] = Null // a kind-mixed column is written generic
		}
	}
	for name, recs := range map[string][]Record{"typed": typed, "generic": generic} {
		frame := EncodeBatch(recs, nil)
		var got []Record
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = DecodeBatch(frame, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%s: decoding %d rects allocated %.0f times, want at most 16", name, n, allocs)
		}
		sameRecords(t, got, recs)
	}
}

// allocBytes returns the bytes one call of f allocates: the least mean
// of five rounds of 10 calls, after a warm-up call, since a garbage
// collection during a round can add a few bytes of its own.
func allocBytes(f func()) int64 {
	f()
	least := int64(math.MaxInt64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc)/10)
	}
	return least
}

// TestDecodeBatchShortRing pins that a damaged polygon column fails or
// decodes as DecodeValue decodes it, never panicking as NewPolygon
// would: a ring truncated by the frame's end is an error, and a
// two-vertex ring decodes as the wire format carries it.
func TestDecodeBatchShortRing(t *testing.T) {
	frame := EncodeBatch(hexagons(3), nil)
	if _, err := DecodeBatch(frame[:len(frame)-20], nil); err == nil {
		t.Error("a frame cut inside a ring decoded without an error")
	}
	two := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	recs := []Record{{NewPolygon(&geo.Polygon{Ring: two})}, {NewPolygon(&geo.Polygon{Ring: two})}}
	got, err := DecodeBatch(EncodeBatch(recs, nil), nil)
	if err != nil {
		t.Fatalf("a two-vertex ring: %v", err)
	}
	if r := got[1][0].Polygon().Ring; len(r) != 2 || r[1] != two[1] {
		t.Errorf("two-vertex ring decoded as %v", r)
	}
}

// FuzzDecodeBatch drives the columnar frame decoder with arbitrary
// bytes. Like FuzzDecodeRecords it guards every cross-node transfer
// and every spill/checkpoint frame: it must never panic or
// over-allocate on damaged input, and anything it accepts must survive
// a re-encode round trip.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(richRecords(), nil))
	f.Add(EncodeBatch(nil, nil))
	f.Add(EncodeBatch(batch(5), nil))
	f.Add(EncodeBatch([]Record{{}, {}, {}}, nil)) // zero-width
	full := EncodeBatch(batch(7), nil)
	f.Add(full[:len(full)/2])
	f.Add(full[:1])
	f.Add([]byte{batchFormatColumnar, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	pad := EncodeBatch([]Record{{Null, NewString(strings.Repeat("n", 40))}}, nil)
	f.Add(pad)
	f.Add(EncodeBatch(richRows(1024), nil))
	f.Add(EncodeBatch(rectAndEmptyList(), nil))
	strs := EncodeBatch([]Record{{NewString("")}, {NewString("short")}, {NewString(strings.Repeat("s", 200))}}, nil)
	f.Add(strs)
	f.Add(strs[:len(strs)-201]) // cut inside the last value's two-byte length prefix
	polys := EncodeBatch(hexagons(3), nil)
	f.Add(polys[:len(polys)-20]) // the last ring short of its points

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeBatch(data, nil)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		again, err := DecodeBatch(EncodeBatch(recs, nil), nil)
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
