package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

func sampleValues() []Value {
	return []Value{
		Null,
		NewBool(true),
		NewBool(false),
		NewInt64(-42),
		NewInt64(1 << 40),
		NewFloat64(3.25),
		NewString(""),
		NewString("hello"),
		NewPoint(geo.Point{X: 1, Y: 2}),
		NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 5}),
		NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})),
		NewInterval(interval.Interval{Start: 10, End: 20}),
		NewList([]Value{NewInt64(1), NewString("x")}),
	}
}

func TestValueAccessors(t *testing.T) {
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewInt64(5).Int64() != 5 {
		t.Error("Int64 accessor")
	}
	if NewFloat64(2.5).Float64() != 2.5 {
		t.Error("Float64 accessor")
	}
	if NewString("ab").Str() != "ab" {
		t.Error("Str accessor")
	}
	if NewPoint(geo.Point{X: 1, Y: 2}).Point() != (geo.Point{X: 1, Y: 2}) {
		t.Error("Point accessor")
	}
	iv := NewInterval(interval.Interval{Start: 1, End: 2}).Interval()
	if iv.Start != 1 || iv.End != 2 {
		t.Error("Interval accessor")
	}
	if len(NewList([]Value{Null}).List()) != 1 {
		t.Error("List accessor")
	}
}

func TestAccessorPanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int64 on string: want panic")
		}
	}()
	_ = NewString("x").Int64()
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt64(3).AsFloat(); !ok || f != 3 {
		t.Error("AsFloat int")
	}
	if f, ok := NewFloat64(1.5).AsFloat(); !ok || f != 1.5 {
		t.Error("AsFloat float")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat string should fail")
	}
}

func TestMBR(t *testing.T) {
	r, ok := NewPoint(geo.Point{X: 2, Y: 3}).MBR()
	if !ok || r != geo.RectFromPoint(geo.Point{X: 2, Y: 3}) {
		t.Error("point MBR")
	}
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	r, ok = NewRect(want).MBR()
	if !ok || r != want {
		t.Error("rect MBR")
	}
	if _, ok = NewInt64(1).MBR(); ok {
		t.Error("int MBR should fail")
	}
}

func TestEqualAndHash(t *testing.T) {
	vals := sampleValues()
	for i, a := range vals {
		for j, b := range vals {
			if (i == j) != a.Equal(b) {
				t.Errorf("Equal(%v, %v) = %v, want %v", a, b, a.Equal(b), i == j)
			}
			if i == j && a.Hash() != b.Hash() {
				t.Errorf("equal values hash differently: %v", a)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	if NewInt64(1).Compare(NewInt64(2)) != -1 || NewInt64(2).Compare(NewInt64(1)) != 1 {
		t.Error("int compare")
	}
	if NewString("a").Compare(NewString("b")) != -1 {
		t.Error("string compare")
	}
	if NewInt64(1).Compare(NewString("a")) == 0 {
		t.Error("cross-kind compare should not be 0")
	}
	for _, v := range sampleValues() {
		if v.Compare(v) != 0 {
			t.Errorf("Compare(%v, self) != 0", v)
		}
	}
}

// edgeCase is a value at an edge of the 32-byte representation (a zero
// length behind a pointer word, a float whose bits are its identity, a
// boxed or pointed-to payload) with a check of what its accessor reads.
type edgeCase struct {
	name  string
	v     Value
	check func(Value) bool
}

func edgeValues() []edgeCase {
	r := geo.Rect{MinX: -1, MinY: 2, MaxX: 3, MaxY: 4}
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 2}})
	return []edgeCase{
		{"empty-string", NewString(""), func(v Value) bool { return v.Str() == "" }},
		{"nil-list", NewList(nil), func(v Value) bool { return len(v.List()) == 0 }},
		{"empty-list", NewList([]Value{}), func(v Value) bool { return len(v.List()) == 0 }},
		{"nested-list", NewList([]Value{NewInt64(1), NewList([]Value{NewString("in"), NewList(nil)})}),
			func(v Value) bool { return v.List()[1].List()[0].Str() == "in" }},
		{"nan", NewFloat64(math.NaN()), func(v Value) bool { return math.IsNaN(v.Float64()) }},
		{"negative-zero", NewFloat64(math.Copysign(0, -1)),
			func(v Value) bool { return v.Float64() == 0 && math.Signbit(v.Float64()) }},
		{"rect", NewRect(r), func(v Value) bool { return v.Rect() == r }},
		{"polygon", NewPolygon(poly), func(v Value) bool { return reflect.DeepEqual(v.Polygon().Ring, poly.Ring) }},
	}
}

// TestValueLayout pins the engine value at four words and its hash at
// the values the 112-byte layout produced: hash partitioning routes
// every shuffle by Value.Hash, so a representation change must not
// move a single record.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	golden := []struct {
		v    Value
		hash uint64
	}{
		{Null, 0x25fc6dd36ce04b20},
		{NewBool(true), 0x5d3ab85ad03d30f9},
		{NewInt64(-42), 0x8b40a6aff194c79c},
		{NewFloat64(3.25), 0x0ced6b29b9f305cf},
		{NewFloat64(math.Copysign(0, -1)), 0x65b282e9c2caae3c},
		{NewString(""), 0x8a278a2522b32b28},
		{NewString("hello"), 0x77e15826a8f0567c},
		{NewPoint(geo.Point{X: 1, Y: 2}), 0xe978aaa5bab95df0},
		{NewRect(geo.Rect{MinX: 0, MinY: -1, MaxX: 4, MaxY: 5}), 0x60041a9735c5ee38},
		{NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})), 0x36d343cec0fed5e2},
		{NewInterval(interval.Interval{Start: 10, End: 20}), 0x3edbd49c74f1ad1c},
		{NewList(nil), 0x8f322bb9678204b8},
		{NewList([]Value{}), 0x8f322bb9678204b8},
		{NewList([]Value{NewInt64(1), NewString("x"), NewList([]Value{NewBool(false)})}), 0x046ebbdd927e1387},
		{NewLineString(geo.NewLineString([]geo.Point{{X: 0, Y: 0}, {X: 2, Y: 3}})), 0xbab6be9ce33c5ee4},
	}
	for _, g := range golden {
		if got := g.v.Hash(); got != g.hash {
			t.Errorf("%v (%v).Hash() = %#x, want %#x", g.v, g.v.Kind(), got, g.hash)
		}
	}
	if NewList(nil).List() != nil || NewList([]Value{}).List() == nil {
		t.Error("List() must keep a nil list nil and an empty list non-nil")
	}
	rect := NewRect(geo.Rect{MaxX: 1, MaxY: 1})
	if got, want := rect.MemSize(), valueBase+int64(unsafe.Sizeof(geo.Rect{})); got != want {
		t.Errorf("rect MemSize = %d, want %d (the value and its boxed rect)", got, want)
	}
}

func TestValueWireRoundTrip(t *testing.T) {
	for _, v := range sampleValues() {
		e := wire.NewEncoder(0)
		v.MarshalWire(e)
		got, err := DecodeValue(wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	for _, c := range edgeValues() {
		t.Run(c.name, func(t *testing.T) {
			e := wire.NewEncoder(0)
			c.v.MarshalWire(e)
			got, err := DecodeValue(wire.NewDecoder(e.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			sameEdgeValue(t, got, c)
		})
	}
}

// sameEdgeValue checks got, a decoded copy of c.v, through every read
// path: the accessor, Native, the wire bytes, Equal, Compare and Hash.
// NaN is the one value not Equal to itself; it must still compare 0
// and hash alike.
func sameEdgeValue(t *testing.T, got Value, c edgeCase) {
	t.Helper()
	if !c.check(c.v) || !c.check(got) {
		t.Errorf("accessor: built %v, decoded %v", c.v, got)
	}
	nan := isNaN(c.v)
	if !nan && !reflect.DeepEqual(got.Native(), c.v.Native()) {
		t.Errorf("Native: %#v, want %#v", got.Native(), c.v.Native())
	}
	if !sameWire(got, c.v) {
		t.Errorf("wire bytes differ: %v vs %v", got, c.v)
	}
	if got.Equal(c.v) == nan || c.v.Equal(c.v) == nan {
		t.Errorf("Equal: decoded %v, self %v, want %v", got.Equal(c.v), c.v.Equal(c.v), !nan)
	}
	if got.Compare(c.v) != 0 || c.v.Compare(got) != 0 {
		t.Errorf("Compare: %d / %d, want 0", got.Compare(c.v), c.v.Compare(got))
	}
	if got.Hash() != c.v.Hash() {
		t.Errorf("Hash: %#x, want %#x", got.Hash(), c.v.Hash())
	}
}

func TestDecodeValueBadKind(t *testing.T) {
	if _, err := DecodeValue(wire.NewDecoder([]byte{0xFF})); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := DecodeValue(wire.NewDecoder(nil)); err == nil {
		t.Error("empty buffer should error")
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Field{"id", KindInt64}, Field{"name", KindString})
	if s.Len() != 2 {
		t.Error("Len")
	}
	if s.Index("name") != 1 || s.Index("missing") != -1 {
		t.Error("Index")
	}
	if s.MustIndex("id") != 0 {
		t.Error("MustIndex")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Fields[0].Name != "name" {
		t.Error("Project")
	}
	if got := s.String(); got != "(id:int64, name:string)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex missing: want panic")
		}
	}()
	NewSchema(Field{"a", KindInt64}).MustIndex("b")
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate field: want panic")
		}
	}()
	NewSchema(Field{"a", KindInt64}, Field{"a", KindString})
}

func TestSchemaConcat(t *testing.T) {
	a := NewSchema(Field{"id", KindInt64}, Field{"v", KindString})
	b := NewSchema(Field{"id", KindInt64}, Field{"w", KindFloat64})
	c := a.Concat(b)
	wantNames := []string{"id", "v", "r_id", "w"}
	if c.Len() != 4 {
		t.Fatalf("Concat Len = %d", c.Len())
	}
	for i, n := range wantNames {
		if c.Fields[i].Name != n {
			t.Errorf("field %d = %q, want %q", i, c.Fields[i].Name, n)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{NewInt64(1), NewString("a"), NewPoint(geo.Point{X: 1, Y: 2})},
		{NewInt64(2), Null, NewBool(true)},
		{},
	}
	buf := EncodeRecords(recs)
	got, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if len(got[i]) != len(recs[i]) {
			t.Fatalf("record %d length mismatch", i)
		}
		for j := range recs[i] {
			if !got[i][j].Equal(recs[i][j]) {
				t.Errorf("record %d field %d: %v != %v", i, j, got[i][j], recs[i][j])
			}
		}
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{NewInt64(1)}
	c := r.Clone()
	c[0] = NewInt64(2)
	if r[0].Int64() != 1 {
		t.Error("Clone aliases original")
	}
}

// Property: random int/float/string records survive a wire round trip,
// and hashing is consistent with equality.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		r := Record{NewInt64(i), NewFloat64(fl), NewString(s), NewBool(b)}
		got, err := DecodeRecords(EncodeRecords([]Record{r}))
		if err != nil || len(got) != 1 {
			return false
		}
		for j := range r {
			if !got[0][j].Equal(r[j]) {
				return false
			}
			if got[0][j].Hash() != r[j].Hash() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestQuickCompareConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt64(a), NewInt64(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
