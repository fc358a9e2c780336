// Package types implements the engine's value system: the dynamic
// values records are made of, schemas, and record encoding. It plays
// the role of AsterixDB's internal data model ("AInt64" etc. in the
// paper's Fig. 7); the FUDJ translation layer in internal/core converts
// between these values and the plain Go types user join libraries see.
package types

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/slab"
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

// Value is a dynamically typed engine value: a 32-byte tagged union of
// a kind, two scalar words and one pointer. Per kind:
//
//	bool, int64   a = the integer (bool: 0 or 1)
//	float64       a = math.Float64bits
//	point         a, b = the bits of X, Y
//	interval      a, b = Start, End
//	string        p = unsafe.StringData, a = length
//	list          p = unsafe.SliceData, a = length
//	polygon       p = the *geo.Polygon
//	linestring    p = the *geo.LineString
//	rect          p = a boxed *geo.Rect (four floats do not fit inline)
//
// The zero Value is null. The zero-size func array keeps Value
// non-comparable, so == and map keys cannot compare string pointers
// instead of contents.
type Value struct {
	_    [0]func()
	kind Kind
	a, b uint64
	p    unsafe.Pointer
}

// Null is the null value.
var Null = Value{}

// NewBool wraps a bool.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.a = 1
	}
	return v
}

// NewInt64 wraps an int64.
func NewInt64(i int64) Value { return Value{kind: KindInt64, a: uint64(i)} }

// NewFloat64 wraps a float64.
func NewFloat64(f float64) Value { return Value{kind: KindFloat64, a: math.Float64bits(f)} }

// NewString wraps a string.
func NewString(s string) Value {
	return Value{kind: KindString, a: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewPoint wraps a geo.Point.
func NewPoint(p geo.Point) Value {
	return Value{kind: KindPoint, a: math.Float64bits(p.X), b: math.Float64bits(p.Y)}
}

// NewRect wraps a geo.Rect.
func NewRect(r geo.Rect) Value { return rectAt(&r) }

// rectAt wraps the rect at r, which nothing may write afterwards.
func rectAt(r *geo.Rect) Value { return Value{kind: KindRect, p: unsafe.Pointer(r)} }

// NewPolygon wraps a polygon.
func NewPolygon(p *geo.Polygon) Value { return Value{kind: KindPolygon, p: unsafe.Pointer(p)} }

// NewInterval wraps an interval.
func NewInterval(iv interval.Interval) Value {
	return Value{kind: KindInterval, a: uint64(iv.Start), b: uint64(iv.End)}
}

// NewList wraps a list of values.
func NewList(vs []Value) Value {
	return Value{kind: KindList, a: uint64(len(vs)), p: unsafe.Pointer(unsafe.SliceData(vs))}
}

// NewLineString wraps a polyline.
func NewLineString(ls *geo.LineString) Value {
	return Value{kind: KindLineString, p: unsafe.Pointer(ls)}
}

// The private accessors read the payload words as their kind's type;
// the caller has already checked the kind.
func (v Value) int() int64            { return int64(v.a) }
func (v Value) int2() int64           { return int64(v.b) }
func (v Value) float() float64        { return math.Float64frombits(v.a) }
func (v Value) float2() float64       { return math.Float64frombits(v.b) }
func (v Value) str() string           { return unsafe.String((*byte)(v.p), int(v.a)) }
func (v Value) list() []Value         { return unsafe.Slice((*Value)(v.p), int(v.a)) }
func (v Value) rect() geo.Rect        { return *(*geo.Rect)(v.p) }
func (v Value) poly() *geo.Polygon    { return (*geo.Polygon)(v.p) }
func (v Value) line() *geo.LineString { return (*geo.LineString)(v.p) }

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics on kind mismatch, which
// indicates a planner bug rather than a data error.
func (v Value) Bool() bool { v.check(KindBool); return v.a != 0 }

// Int64 returns the integer payload.
func (v Value) Int64() int64 { v.check(KindInt64); return v.int() }

// Float64 returns the float payload.
func (v Value) Float64() float64 { v.check(KindFloat64); return v.float() }

// Str returns the string payload.
func (v Value) Str() string { v.check(KindString); return v.str() }

// Point returns the point payload.
func (v Value) Point() geo.Point { v.check(KindPoint); return geo.Point{X: v.float(), Y: v.float2()} }

// Rect returns the rect payload.
func (v Value) Rect() geo.Rect { v.check(KindRect); return v.rect() }

// Polygon returns the polygon payload.
func (v Value) Polygon() *geo.Polygon { v.check(KindPolygon); return v.poly() }

// Interval returns the interval payload.
func (v Value) Interval() interval.Interval {
	v.check(KindInterval)
	return interval.Interval{Start: v.int(), End: v.int2()}
}

// List returns the list payload.
func (v Value) List() []Value { v.check(KindList); return v.list() }

// LineString returns the polyline payload.
func (v Value) LineString() *geo.LineString { v.check(KindLineString); return v.line() }

func (v Value) check(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("types: value is %v, not %v", v.kind, k))
	}
}

// AsFloat widens int64 or float64 to float64 for numeric comparison.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt64:
		return float64(v.int()), true
	case KindFloat64:
		return v.float(), true
	}
	return 0, false
}

// MBR returns the minimum bounding rectangle of a spatial value
// (point, rect, or polygon) and reports whether the value is spatial.
func (v Value) MBR() (geo.Rect, bool) {
	switch v.kind {
	case KindPoint:
		return geo.RectFromPoint(v.Point()), true
	case KindRect:
		return v.rect(), true
	case KindPolygon:
		return v.poly().MBR(), true
	case KindLineString:
		return v.line().MBR(), true
	}
	return geo.EmptyRect(), false
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.a != 0)
	case KindInt64:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat64:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str())
	case KindPoint:
		return v.Point().String()
	case KindRect:
		return v.Rect().String()
	case KindPolygon:
		return v.poly().String()
	case KindLineString:
		return v.line().String()
	case KindInterval:
		return v.Interval().String()
	case KindList:
		list := v.list()
		parts := make([]string, len(list))
		for i, e := range list {
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
		return v.a == o.a
	case KindFloat64:
		return v.float() == o.float()
	case KindString:
		return v.str() == o.str()
	case KindInterval:
		return v.a == o.a && v.b == o.b
	case KindPoint:
		return v.Point() == o.Point()
	case KindRect:
		return v.rect() == o.rect()
	case KindPolygon:
		return slices.Equal(v.poly().Ring, o.poly().Ring)
	case KindLineString:
		return slices.Equal(v.line().Points, o.line().Points)
	case KindList:
		return slices.EqualFunc(v.list(), o.list(), Value.Equal)
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
		return cmpInt(v.int(), o.int())
	case KindFloat64:
		return cmpFloat(v.float(), o.float())
	case KindString:
		return strings.Compare(v.str(), o.str())
	case KindInterval:
		if c := cmpInt(v.int(), o.int()); c != 0 {
			return c
		}
		return cmpInt(v.int2(), o.int2())
	case KindPoint:
		if c := cmpFloat(v.float(), o.float()); c != 0 {
			return c
		}
		return cmpFloat(v.float2(), o.float2())
	case KindRect:
		return cmpRect(v.rect(), o.rect())
	case KindPolygon:
		return cmpRect(v.poly().MBR(), o.poly().MBR())
	case KindLineString:
		a, b := v.line(), o.line()
		if c := cmpRect(a.MBR(), b.MBR()); c != 0 {
			return c
		}
		return cmpInt(int64(len(a.Points)), int64(len(b.Points)))
	case KindList:
		return slices.CompareFunc(v.list(), o.list(), Value.Compare)
	}
	return 0
}

// cmpRect orders rects by MinX, MinY, MaxX, MaxY.
func cmpRect(a, b geo.Rect) int {
	for _, pair := range [][2]float64{{a.MinX, b.MinX}, {a.MinY, b.MinY}, {a.MaxX, b.MaxX}, {a.MaxY, b.MaxY}} {
		if c := cmpFloat(pair[0], pair[1]); c != 0 {
			return c
		}
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
	case KindBool, KindInt64, KindFloat64:
		writeInt(h, int64(v.a))
	case KindString:
		h.writeString(v.str())
	case KindInterval, KindPoint:
		writeInt(h, int64(v.a))
		writeInt(h, int64(v.b))
	case KindRect:
		r := v.rect()
		writePoints(h, []geo.Point{{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY}})
	case KindPolygon:
		writePoints(h, v.poly().Ring)
	case KindLineString:
		writePoints(h, v.line().Points)
	case KindList:
		for _, e := range v.list() {
			e.hashInto(h)
		}
	}
}

func writePoints(h *hash64, pts []geo.Point) {
	for _, p := range pts {
		writeInt(h, int64(math.Float64bits(p.X)))
		writeInt(h, int64(math.Float64bits(p.Y)))
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
		e.Varint(v.int())
	case KindFloat64:
		e.Float64(v.float())
	case KindString:
		e.String(v.str())
	case KindInterval:
		e.Varint(v.int())
		e.Varint(v.int2())
	case KindPoint:
		e.Float64(v.float())
		e.Float64(v.float2())
	case KindRect:
		v.rect().MarshalWire(e)
	case KindPolygon:
		v.poly().MarshalWire(e)
	case KindLineString:
		v.line().MarshalWire(e)
	case KindList:
		list := v.list()
		e.Uvarint(uint64(len(list)))
		for _, elem := range list {
			elem.MarshalWire(e)
		}
	}
}

// DecodeValue reads one value from d.
func DecodeValue(d *wire.Decoder) (Value, error) {
	var s shapeSlabs
	return s.decode(d, 1)
}

// shapeSlabs carve decoded rects, polygons and polylines from slabs of
// their own. A batch column decodes all its values through one, so a
// column of n polygons with rings of one length costs a few
// allocations, not 2n, and one of n rects a few, not n; DecodeValue
// takes a fresh one per value, whose one-slot chunk (and exactly sized
// ring) are the allocations a lone shape costs. A surviving shape keeps
// its chunks alive.
type shapeSlabs struct {
	rects  slab.Slab[geo.Rect]
	polys  slab.Slab[geo.Polygon]
	lines  slab.Slab[geo.LineString]
	points slab.Slab[geo.Point]
	left   int // values left to decode, the one in hand included
}

// The chunk caps: 32 KiB each, the largest size the runtime allocates
// without rounding up to whole pages. A ring or polyline longer than
// shapePoints gets a chunk of its own length.
const (
	shapeChunk  = 512  // rects, polygons or polylines
	shapePoints = 2048 // points
)

// decode reads one value from d; left counts the values d holds for s,
// this one included, and sizes the chunks s starts: a new shape chunk
// holds the rows left and a new points chunk the ring in hand's length
// times the rows left, each within its cap and rounded down by
// slab.Fit to what the runtime allocates exactly, so the rest of a
// column comes in a smaller chunk rather than a rounded-up one.
func (s *shapeSlabs) decode(d *wire.Decoder, left int) (Value, error) {
	kb, err := d.Byte()
	if err != nil {
		return Null, err
	}
	s.left = left
	switch k := Kind(kb); k {
	case KindNull:
		return Null, nil
	case KindBool, KindInt64:
		i, err := d.Varint()
		if err != nil {
			return Null, err
		}
		return Value{kind: k, a: uint64(i)}, nil
	case KindFloat64:
		f, err := d.Float64()
		if err != nil {
			return Null, err
		}
		return NewFloat64(f), nil
	case KindString:
		str, err := d.String()
		if err != nil {
			return Null, err
		}
		return NewString(str), nil
	case KindInterval:
		i, err := d.Varint()
		if err != nil {
			return Null, err
		}
		j, err := d.Varint()
		if err != nil {
			return Null, err
		}
		return NewInterval(interval.Interval{Start: i, End: j}), nil
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
		r := s.rects.Put(geo.Rect{}, newChunk(s.rects, min(left, shapeChunk), 1))
		if err := r.UnmarshalWire(d); err != nil {
			return Null, err
		}
		return rectAt(r), nil
	case KindPolygon:
		p := s.polys.Put(geo.Polygon{}, newChunk(s.polys, min(left, shapeChunk), 1))
		if err := p.UnmarshalWireInto(d, s.carve); err != nil {
			return Null, err
		}
		return NewPolygon(p), nil
	case KindLineString:
		ls := s.lines.Put(geo.LineString{}, newChunk(s.lines, min(left, shapeChunk), 1))
		if err := ls.UnmarshalWireInto(d, s.carve); err != nil {
			return Null, err
		}
		return NewLineString(ls), nil
	case KindList:
		n, err := d.UvarintCount(1)
		if err != nil {
			return Null, err
		}
		list := make([]Value, n)
		for i := range list {
			if list[i], err = s.decode(d, n-i); err != nil {
				return Null, err
			}
		}
		return NewList(list), nil
	}
	return Null, fmt.Errorf("types: unknown value kind %d", kb)
}

// carve returns a ring or polyline of n points from the points slab.
func (s *shapeSlabs) carve(n int) []geo.Point {
	return s.points.Carve(n, newChunk(s.points, min(n*s.left, shapePoints), n))
}

// newChunk returns the size of the chunk sl starts for its next unit
// slots, slab.Fit of want, or 0 while the chunk in hand holds them, so
// Fit runs once per chunk, not once per value.
func newChunk[T any](sl slab.Slab[T], want, unit int) int {
	if cap(sl)-len(sl) >= unit {
		return 0
	}
	return slab.Fit[T](want, unit)
}
