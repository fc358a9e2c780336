package types

import (
	"fmt"
	"unsafe"

	"fudj/internal/geo"
	"fudj/internal/interval"
)

// Geometry extracts the spatial payload of a value as a geo.Geometry,
// reporting whether the value is spatial.
func (v Value) Geometry() (geo.Geometry, bool) {
	switch v.kind {
	case KindPoint:
		return v.Point(), true
	case KindRect:
		return v.Rect(), true
	case KindPolygon:
		return v.poly(), true
	case KindLineString:
		return v.line(), true
	}
	return nil, false
}

// Native converts an engine value to the plain Go value the FUDJ
// translation layer (Fig. 7) hands to join libraries:
//
//	int64 → int64, float64 → float64, string → string, bool → bool,
//	point/rect/polygon → geo.Geometry, interval → interval.Interval,
//	list of strings → []string, other lists → []any.
func (v Value) Native() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindBool:
		return v.Bool()
	case KindInt64:
		return v.int()
	case KindFloat64:
		return v.float()
	case KindString:
		return v.str()
	case KindPoint:
		return v.Point()
	case KindRect:
		return boxAt(rectType, v.p)
	case KindPolygon:
		return v.poly()
	case KindLineString:
		return v.line()
	case KindInterval:
		return v.Interval()
	case KindList:
		list := v.list()
		if allStrings(list) {
			out := make([]string, len(list))
			for i, e := range list {
				out[i] = e.Str()
			}
			return out
		}
		out := make([]any, len(list))
		for i, e := range list {
			out[i] = e.Native()
		}
		return out
	}
	panic(fmt.Sprintf("types: no native form for %v", v.kind))
}

func allStrings(vs []Value) bool {
	for _, e := range vs {
		if e.Kind() != KindString {
			return false
		}
	}
	return len(vs) > 0
}

// A Boxer returns what Value.Native returns, of the same dynamic type
// and value, but writes each point, interval, string, float64 or int64
// outside [0, 256) once into the next slot of a chunked slab of its
// kind and builds the interface over that slot, so boxing n keys
// allocates once per chunk, not once per key. Slots are never rewritten
// and chunks never reused; an interface's interior pointer keeps its
// chunk alive. Other kinds box as Native boxes them. A Boxer is not
// safe for concurrent use.
type Boxer struct {
	chunk     int
	words     slab[uint64] // int64 and float64 bits
	strs      slab[string]
	points    slab[geo.Point]
	intervals slab[interval.Interval]
}

// NewBoxer returns a Boxer whose slabs grow chunk slots at a time.
func NewBoxer(chunk int) *Boxer { return &Boxer{chunk: max(chunk, 1)} }

// Native returns v.Native(), its payload in a slab slot.
func (b *Boxer) Native(v Value) any {
	switch v.kind {
	case KindInt64, KindFloat64:
		// The runtime boxes words below 256 without allocating.
		if v.a >= 256 {
			typ := int64Type
			if v.kind == KindFloat64 {
				typ = float64Type
			}
			return boxAt(typ, b.words.put(v.a, b.chunk))
		}
	case KindString:
		if v.a > 0 {
			return boxAt(stringType, b.strs.put(v.str(), b.chunk))
		}
	case KindPoint:
		return boxAt(pointType, b.points.put(geo.Point{X: v.float(), Y: v.float2()}, b.chunk))
	case KindInterval:
		return boxAt(intervalType, b.intervals.put(interval.Interval{Start: v.int(), End: v.int2()}, b.chunk))
	}
	return v.Native()
}

// slab hands out write-once slots from the chunk in hand, starting a
// fresh chunk when it is full; a full chunk is never touched again.
type slab[T any] []T

// put writes x to the next slot and returns the slot's address.
func (s *slab[T]) put(x T, chunk int) unsafe.Pointer {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, chunk)
	}
	*s = append(*s, x)
	return unsafe.Pointer(&(*s)[len(*s)-1])
}

// eface is the runtime's layout of an interface with no methods.
// Boxing a pointer to the slot instead would change the type libraries
// see (*geo.Point for geo.Point).
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// The type words of the kinds built over a slot, each read once from a
// boxed zero value.
var (
	int64Type    = typeWord(int64(0))
	float64Type  = typeWord(float64(0))
	stringType   = typeWord("")
	pointType    = typeWord(geo.Point{})
	rectType     = typeWord(geo.Rect{})
	intervalType = typeWord(interval.Interval{})
)

func typeWord(x any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

// boxAt returns the interface of dynamic type typ whose payload is at
// data, which nothing may write afterwards.
func boxAt(typ, data unsafe.Pointer) (x any) {
	e := (*eface)(unsafe.Pointer(&x))
	e.typ, e.data = typ, data
	return x
}
