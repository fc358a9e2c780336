package types

import (
	"unsafe"

	"fudj/internal/geo"
)

// Memory accounting: the engine's memory-bounded execution needs to
// know roughly how many bytes of RAM a record pins while it sits in a
// shuffle frame or a COMBINE hash build. The estimate is the tagged
// union's fixed 32-byte footprint plus any heap payload it references
// (string bytes, the boxed rect, polygon rings, list elements); it does
// not try to model allocator rounding or sharing, only to give the
// budget enforcement a consistent, monotone currency.

// valueBase is the fixed in-memory footprint of one Value struct.
const valueBase = int64(unsafe.Sizeof(Value{}))

// rectSize is the footprint of the *geo.Rect a rect value boxes.
const rectSize = int64(unsafe.Sizeof(geo.Rect{}))

// sliceHeader is the footprint of a slice header ([]Value / Record).
const sliceHeader = int64(unsafe.Sizeof([]Value(nil)))

// pointSize is the footprint of one geo.Point inside a ring/polyline.
const pointSize = int64(2 * unsafe.Sizeof(float64(0)))

// MemSize estimates the bytes of memory the value pins: the inline
// union plus referenced heap payloads (string bytes, the boxed rect,
// polygon rings, list elements).
func (v Value) MemSize() int64 {
	size := valueBase
	switch v.kind {
	case KindString:
		size += int64(len(v.str()))
	case KindRect:
		size += rectSize
	case KindPolygon:
		if p := v.poly(); p != nil {
			size += sliceHeader + int64(len(p.Ring))*pointSize
		}
	case KindLineString:
		if l := v.line(); l != nil {
			size += sliceHeader + int64(len(l.Points))*pointSize
		}
	case KindList:
		size += sliceHeader
		for _, e := range v.list() {
			size += e.MemSize()
		}
	}
	return size
}

// MemSize estimates the bytes of memory the record pins: the slice
// header plus every value's footprint.
func (r Record) MemSize() int64 {
	size := sliceHeader
	for _, v := range r {
		size += v.MemSize()
	}
	return size
}

// RecordsMemSize estimates the resident footprint of a record batch.
func RecordsMemSize(recs []Record) int64 {
	var size int64
	for _, r := range recs {
		size += r.MemSize()
	}
	return size
}
