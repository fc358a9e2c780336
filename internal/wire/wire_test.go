package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64}
	e := NewEncoder(64)
	for _, v := range cases {
		e.Uvarint(v)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range cases {
		got, err := d.Uvarint()
		if err != nil {
			t.Fatalf("Uvarint: %v", err)
		}
		if got != want {
			t.Errorf("Uvarint round trip: got %d, want %d", got, want)
		}
	}
	if d.Remaining() != 0 {
		t.Errorf("decoder has %d bytes left, want 0", d.Remaining())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	e := NewEncoder(64)
	for _, v := range cases {
		e.Varint(v)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range cases {
		got, err := d.Varint()
		if err != nil {
			t.Fatalf("Varint: %v", err)
		}
		if got != want {
			t.Errorf("Varint round trip: got %d, want %d", got, want)
		}
	}
}

func TestMixedRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.Varint(-42)
	e.Float64(3.5)
	e.Bool(true)
	e.Bool(false)
	e.String("hello, 世界")
	e.BytesField([]byte{1, 2, 3})
	e.Byte(0xAB)

	d := NewDecoder(e.Bytes())
	if v, _ := d.Varint(); v != -42 {
		t.Errorf("Varint = %d, want -42", v)
	}
	if v, _ := d.Float64(); v != 3.5 {
		t.Errorf("Float64 = %v, want 3.5", v)
	}
	if v, _ := d.Bool(); !v {
		t.Error("Bool #1 = false, want true")
	}
	if v, _ := d.Bool(); v {
		t.Error("Bool #2 = true, want false")
	}
	if v, _ := d.String(); v != "hello, 世界" {
		t.Errorf("String = %q", v)
	}
	b, _ := d.BytesField()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("BytesField = %v", b)
	}
	if v, _ := d.Byte(); v != 0xAB {
		t.Errorf("Byte = %#x, want 0xAB", v)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestFloat64SpecialValues(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	e := NewEncoder(0)
	for _, v := range cases {
		e.Float64(v)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range cases {
		got, err := d.Float64()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("Float64 round trip: got %v, want %v", got, want)
		}
	}
	// NaN compares unequal to itself; check bit pattern survives.
	e.Reset()
	e.Float64(math.NaN())
	got, err := NewDecoder(e.Bytes()).Float64()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got) {
		t.Errorf("NaN round trip produced %v", got)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder(nil)
	if _, err := d.Uvarint(); err == nil {
		t.Error("Uvarint on empty buffer: want error")
	}
	if _, err := d.Varint(); err == nil {
		t.Error("Varint on empty buffer: want error")
	}
	if _, err := d.Float64(); err == nil {
		t.Error("Float64 on empty buffer: want error")
	}
	if _, err := d.Byte(); err == nil {
		t.Error("Byte on empty buffer: want error")
	}
	// A length prefix that exceeds the remaining bytes must error, not panic.
	e := NewEncoder(0)
	e.Uvarint(100)
	d = NewDecoder(e.Bytes())
	if _, err := d.String(); err == nil {
		t.Error("String with lying length prefix: want error")
	}
	e.Reset()
	e.Uvarint(100)
	d = NewDecoder(e.Bytes())
	if _, err := d.BytesField(); err == nil {
		t.Error("BytesField with lying length prefix: want error")
	}
}

func TestReset(t *testing.T) {
	e := NewEncoder(0)
	e.String("abc")
	if e.Len() == 0 {
		t.Fatal("Len = 0 after write")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("Len = %d after Reset, want 0", e.Len())
	}
}

// Property: any sequence of (int64, string, float64) triples round-trips.
func TestQuickTripleRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64) bool {
		e := NewEncoder(0)
		e.Varint(i)
		e.String(s)
		e.Float64(fl)
		d := NewDecoder(e.Bytes())
		gi, err1 := d.Varint()
		gs, err2 := d.String()
		gf, err3 := d.Float64()
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if math.IsNaN(fl) {
			return gi == i && gs == s && math.IsNaN(gf)
		}
		return gi == i && gs == s && gf == fl && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: uvarint encoding is prefix-free within our stream model —
// decoding consumes exactly the bytes that were appended.
func TestQuickUvarintExactConsumption(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEncoder(0)
		for _, v := range vals {
			e.Uvarint(v)
		}
		d := NewDecoder(e.Bytes())
		for _, want := range vals {
			got, err := d.Uvarint()
			if err != nil || got != want {
				return false
			}
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
