package types

import (
	"fmt"
	"unsafe"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/slab"
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
		return slab.Box(rectType, v.p)
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
// kind (slab.Slab) and builds the interface over that slot, so boxing n
// keys allocates once per chunk, not once per key. An interface's
// interior pointer keeps its chunk alive. Other kinds box as Native
// boxes them. A Boxer is not safe for concurrent use.
type Boxer struct {
	chunk     int
	words     slab.Slab[uint64] // int64 and float64 bits
	strs      slab.Slab[string]
	points    slab.Slab[geo.Point]
	intervals slab.Slab[interval.Interval]
}

// NewBoxer returns a Boxer whose slabs grow chunk slots at a time.
func NewBoxer(chunk int) *Boxer { return &Boxer{chunk: chunk} }

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
			return slab.Box(typ, unsafe.Pointer(b.words.Put(v.a, b.chunk)))
		}
	case KindString:
		if v.a > 0 {
			return slab.Box(stringType, unsafe.Pointer(b.strs.Put(v.str(), b.chunk)))
		}
	case KindPoint:
		return slab.Box(pointType, unsafe.Pointer(b.points.Put(geo.Point{X: v.float(), Y: v.float2()}, b.chunk)))
	case KindInterval:
		return slab.Box(intervalType, unsafe.Pointer(b.intervals.Put(interval.Interval{Start: v.int(), End: v.int2()}, b.chunk)))
	}
	return v.Native()
}

// The type words of the kinds built over a slot.
var (
	int64Type    = slab.TypeWord[int64]()
	float64Type  = slab.TypeWord[float64]()
	stringType   = slab.TypeWord[string]()
	pointType    = slab.TypeWord[geo.Point]()
	rectType     = slab.TypeWord[geo.Rect]()
	intervalType = slab.TypeWord[interval.Interval]()
)
