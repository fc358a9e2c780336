// Package types implements the engine's value system: the dynamic
// values records are made of, schemas, and record encoding. It plays
// the role of AsterixDB's internal data model ("AInt64" etc. in the
// paper's Fig. 7); the FUDJ translation layer in internal/core converts
// between these values and the plain Go types user join libraries see.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// Kind enumerates the dynamic types the engine understands.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt64
	KindFloat64
	KindString
	_ // 5 is reserved: no kind number moves in any wire, file or schema
	KindPoint
	KindRect
	KindPolygon
	KindInterval
	KindList
	KindLineString
)

var kindNames = [...]string{
	KindNull: "null", KindBool: "bool", KindInt64: "int64",
	KindFloat64: "float64", KindString: "string",
	KindPoint: "point", KindRect: "rect", KindPolygon: "polygon",
	KindInterval: "interval", KindList: "list", KindLineString: "linestring",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed engine value. It is a small tagged
// union: scalar payloads live inline, reference payloads (string,
// polygon, list) live behind the ptr fields. The zero Value is null.
type Value struct {
	kind Kind
	i    int64   // bool/int64/interval-start
	j    int64   // interval-end
	f    float64 // float64 / point.X / rect.MinX
	f2   float64
	f3   float64
	f4   float64
	s    string
	poly *geo.Polygon
	line *geo.LineString
	list []Value
}

// Null is the null value.
var Null = Value{}

// NewBool wraps a bool.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt64 wraps an int64.
func NewInt64(i int64) Value { return Value{kind: KindInt64, i: i} }

// NewFloat64 wraps a float64.
func NewFloat64(f float64) Value { return Value{kind: KindFloat64, f: f} }

// NewString wraps a string.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewPoint wraps a geo.Point.
func NewPoint(p geo.Point) Value { return Value{kind: KindPoint, f: p.X, f2: p.Y} }

// NewRect wraps a geo.Rect.
func NewRect(r geo.Rect) Value {
	return Value{kind: KindRect, f: r.MinX, f2: r.MinY, f3: r.MaxX, f4: r.MaxY}
}

// NewPolygon wraps a polygon.
func NewPolygon(p *geo.Polygon) Value { return Value{kind: KindPolygon, poly: p} }

// NewInterval wraps an interval.
func NewInterval(iv interval.Interval) Value {
	return Value{kind: KindInterval, i: iv.Start, j: iv.End}
}

// NewList wraps a list of values.
func NewList(vs []Value) Value { return Value{kind: KindList, list: vs} }

// NewLineString wraps a polyline.
func NewLineString(ls *geo.LineString) Value { return Value{kind: KindLineString, line: ls} }

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics on kind mismatch, which
// indicates a planner bug rather than a data error.
func (v Value) Bool() bool { v.check(KindBool); return v.i != 0 }

// Int64 returns the integer payload.
func (v Value) Int64() int64 { v.check(KindInt64); return v.i }

// Float64 returns the float payload.
func (v Value) Float64() float64 { v.check(KindFloat64); return v.f }

// Str returns the string payload.
func (v Value) Str() string { v.check(KindString); return v.s }

// Point returns the point payload.
func (v Value) Point() geo.Point { v.check(KindPoint); return geo.Point{X: v.f, Y: v.f2} }

// Rect returns the rect payload.
func (v Value) Rect() geo.Rect {
	v.check(KindRect)
	return geo.Rect{MinX: v.f, MinY: v.f2, MaxX: v.f3, MaxY: v.f4}
}

// Polygon returns the polygon payload.
func (v Value) Polygon() *geo.Polygon { v.check(KindPolygon); return v.poly }

// Interval returns the interval payload.
func (v Value) Interval() interval.Interval {
	v.check(KindInterval)
	return interval.Interval{Start: v.i, End: v.j}
}

// List returns the list payload.
func (v Value) List() []Value { v.check(KindList); return v.list }

// LineString returns the polyline payload.
func (v Value) LineString() *geo.LineString { v.check(KindLineString); return v.line }

func (v Value) check(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("types: value is %v, not %v", v.kind, k))
	}
}

// AsFloat widens int64 or float64 to float64 for numeric comparison.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt64:
		return float64(v.i), true
	case KindFloat64:
		return v.f, true
	}
	return 0, false
}

// MBR returns the minimum bounding rectangle of a spatial value
// (point, rect, or polygon) and reports whether the value is spatial.
func (v Value) MBR() (geo.Rect, bool) {
	switch v.kind {
	case KindPoint:
		return geo.RectFromPoint(geo.Point{X: v.f, Y: v.f2}), true
	case KindRect:
		return geo.Rect{MinX: v.f, MinY: v.f2, MaxX: v.f3, MaxY: v.f4}, true
	case KindPolygon:
		return v.poly.MBR(), true
	case KindLineString:
		return v.line.MBR(), true
	}
	return geo.EmptyRect(), false
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.i != 0)
	case KindInt64:
		return strconv.FormatInt(v.i, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindPoint:
		return v.Point().String()
	case KindRect:
		return v.Rect().String()
	case KindPolygon:
		return v.poly.String()
	case KindLineString:
		return v.line.String()
	case KindInterval:
		return v.Interval().String()
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

// Equal reports deep equality of two values. Values of different kinds
// are never equal (no implicit numeric coercion; the planner inserts
// explicit casts).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool, KindInt64:
		return v.i == o.i
	case KindFloat64:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindInterval:
		return v.i == o.i && v.j == o.j
	case KindPoint:
		return v.f == o.f && v.f2 == o.f2
	case KindRect:
		return v.f == o.f && v.f2 == o.f2 && v.f3 == o.f3 && v.f4 == o.f4
	case KindPolygon:
		if len(v.poly.Ring) != len(o.poly.Ring) {
			return false
		}
		for i := range v.poly.Ring {
			if v.poly.Ring[i] != o.poly.Ring[i] {
				return false
			}
		}
		return true
	case KindLineString:
		if len(v.line.Points) != len(o.line.Points) {
			return false
		}
		for i := range v.line.Points {
			if v.line.Points[i] != o.line.Points[i] {
				return false
			}
		}
		return true
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values of the same kind: -1, 0, or +1. Ordering
// across kinds follows kind order (so heterogeneous sort keys are
// stable). Spatial kinds order by their MBR min corner.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return cmpInt(int64(v.kind), int64(o.kind))
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool, KindInt64:
		return cmpInt(v.i, o.i)
	case KindFloat64:
		return cmpFloat(v.f, o.f)
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindInterval:
		if c := cmpInt(v.i, o.i); c != 0 {
			return c
		}
		return cmpInt(v.j, o.j)
	case KindPoint:
		if c := cmpFloat(v.f, o.f); c != 0 {
			return c
		}
		return cmpFloat(v.f2, o.f2)
	case KindRect:
		for _, pair := range [][2]float64{{v.f, o.f}, {v.f2, o.f2}, {v.f3, o.f3}, {v.f4, o.f4}} {
			if c := cmpFloat(pair[0], pair[1]); c != 0 {
				return c
			}
		}
		return 0
	case KindPolygon:
		a, b := v.poly.MBR(), o.poly.MBR()
		return NewRect(a).Compare(NewRect(b))
	case KindLineString:
		a, b := v.line.MBR(), o.line.MBR()
		if c := NewRect(a).Compare(NewRect(b)); c != 0 {
			return c
		}
		return cmpInt(int64(len(v.line.Points)), int64(len(o.line.Points)))
	case KindList:
		n := len(v.list)
		if len(o.list) < n {
			n = len(o.list)
		}
		for i := 0; i < n; i++ {
			if c := v.list[i].Compare(o.list[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(v.list)), int64(len(o.list)))
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// hash64 is an FNV-1a accumulator. The fixed basis and prime make hash
// partitioning identical across processes — maphash's per-process seed
// would reroute shuffles on every run, which breaks cross-run trace
// comparisons and the byte-identical re-execution the determinism
// suite promises.
type hash64 uint64

const (
	fnvBasis uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211
)

func (h *hash64) writeByte(b byte) {
	*h = hash64((uint64(*h) ^ uint64(b)) * fnvPrime)
}

func (h *hash64) write(p []byte) {
	for _, b := range p {
		h.writeByte(b)
	}
}

func (h *hash64) writeString(s string) {
	for i := 0; i < len(s); i++ {
		h.writeByte(s[i])
	}
}

// finish avalanches the raw FNV state (splitmix64 finalizer). FNV-1a
// diffuses poorly into its low bits, and partition routing reduces the
// hash mod a small partition count — without mixing, consecutive
// integer keys route in a short periodic pattern that can keep every
// record on its home node.
func (h hash64) finish() uint64 {
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns a hash of the value suitable for hash partitioning and
// hash joins. Equal values hash equally, across processes.
func (v Value) Hash() uint64 {
	h := hash64(fnvBasis)
	v.hashInto(&h)
	return h.finish()
}

func (v Value) hashInto(h *hash64) {
	h.writeByte(byte(v.kind))
	switch v.kind {
	case KindBool, KindInt64:
		writeInt(h, v.i)
	case KindFloat64:
		writeInt(h, int64(math.Float64bits(v.f)))
	case KindString:
		h.writeString(v.s)
	case KindInterval:
		writeInt(h, v.i)
		writeInt(h, v.j)
	case KindPoint:
		writeInt(h, int64(math.Float64bits(v.f)))
		writeInt(h, int64(math.Float64bits(v.f2)))
	case KindRect:
		for _, f := range []float64{v.f, v.f2, v.f3, v.f4} {
			writeInt(h, int64(math.Float64bits(f)))
		}
	case KindPolygon:
		for _, p := range v.poly.Ring {
			writeInt(h, int64(math.Float64bits(p.X)))
			writeInt(h, int64(math.Float64bits(p.Y)))
		}
	case KindLineString:
		for _, p := range v.line.Points {
			writeInt(h, int64(math.Float64bits(p.X)))
			writeInt(h, int64(math.Float64bits(p.Y)))
		}
	case KindList:
		for _, e := range v.list {
			e.hashInto(h)
		}
	}
}

func writeInt(h *hash64, v int64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.write(b[:])
}

// HashString hashes an arbitrary string with the same fixed-basis FNV
// as Value.Hash, for callers that partition by serialized keys.
func HashString(s string) uint64 {
	h := hash64(fnvBasis)
	h.writeString(s)
	return h.finish()
}

// MarshalWire encodes the value with a leading kind byte.
func (v Value) MarshalWire(e *wire.Encoder) {
	e.Byte(byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt64:
		e.Varint(v.i)
	case KindFloat64:
		e.Float64(v.f)
	case KindString:
		e.String(v.s)
	case KindInterval:
		e.Varint(v.i)
		e.Varint(v.j)
	case KindPoint:
		e.Float64(v.f)
		e.Float64(v.f2)
	case KindRect:
		e.Float64(v.f)
		e.Float64(v.f2)
		e.Float64(v.f3)
		e.Float64(v.f4)
	case KindPolygon:
		v.poly.MarshalWire(e)
	case KindLineString:
		v.line.MarshalWire(e)
	case KindList:
		e.Uvarint(uint64(len(v.list)))
		for _, elem := range v.list {
			elem.MarshalWire(e)
		}
	}
}

// DecodeValue reads one value from d.
func DecodeValue(d *wire.Decoder) (Value, error) {
	kb, err := d.Byte()
	if err != nil {
		return Null, err
	}
	k := Kind(kb)
	switch k {
	case KindNull:
		return Null, nil
	case KindBool, KindInt64:
		i, err := d.Varint()
		if err != nil {
			return Null, err
		}
		return Value{kind: k, i: i}, nil
	case KindFloat64:
		f, err := d.Float64()
		if err != nil {
			return Null, err
		}
		return NewFloat64(f), nil
	case KindString:
		s, err := d.String()
		if err != nil {
			return Null, err
		}
		return NewString(s), nil
	case KindInterval:
		i, err := d.Varint()
		if err != nil {
			return Null, err
		}
		j, err := d.Varint()
		if err != nil {
			return Null, err
		}
		return Value{kind: k, i: i, j: j}, nil
	case KindPoint:
		x, err := d.Float64()
		if err != nil {
			return Null, err
		}
		y, err := d.Float64()
		if err != nil {
			return Null, err
		}
		return NewPoint(geo.Point{X: x, Y: y}), nil
	case KindRect:
		var r geo.Rect
		if err := r.UnmarshalWire(d); err != nil {
			return Null, err
		}
		return NewRect(r), nil
	case KindPolygon:
		var p geo.Polygon
		if err := p.UnmarshalWire(d); err != nil {
			return Null, err
		}
		return NewPolygon(&p), nil
	case KindLineString:
		var ls geo.LineString
		if err := ls.UnmarshalWire(d); err != nil {
			return Null, err
		}
		return NewLineString(&ls), nil
	case KindList:
		n, err := d.UvarintCount(1)
		if err != nil {
			return Null, err
		}
		list := make([]Value, n)
		for i := range list {
			if list[i], err = DecodeValue(d); err != nil {
				return Null, err
			}
		}
		return NewList(list), nil
	}
	return Null, fmt.Errorf("types: unknown value kind %d", kb)
}
