package types

import (
	"fmt"

	"fudj/internal/geo"
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
		return v.Rect()
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
