package fudj

import (
	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
)

// The engine's data model, re-exported so applications can build
// schemas and records against the public package alone.

// Kind enumerates the dynamic value kinds.
type Kind = types.Kind

// Value kinds.
const (
	KindNull       = types.KindNull
	KindBool       = types.KindBool
	KindInt64      = types.KindInt64
	KindFloat64    = types.KindFloat64
	KindString     = types.KindString
	KindPoint      = types.KindPoint
	KindRect       = types.KindRect
	KindPolygon    = types.KindPolygon
	KindInterval   = types.KindInterval
	KindList       = types.KindList
	KindLineString = types.KindLineString
)

// Value is one dynamically typed engine value.
type Value = types.Value

// Record is one tuple.
type Record = types.Record

// Schema describes a record stream.
type Schema = types.Schema

// Field is one schema column.
type Field = types.Field

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return types.NewSchema(fields...) }

// Value constructors.
var (
	// Null is the null value.
	Null = types.Null
)

// NewBool wraps a bool.
func NewBool(b bool) Value { return types.NewBool(b) }

// NewInt64 wraps an int64.
func NewInt64(i int64) Value { return types.NewInt64(i) }

// NewFloat64 wraps a float64.
func NewFloat64(f float64) Value { return types.NewFloat64(f) }

// NewString wraps a string.
func NewString(s string) Value { return types.NewString(s) }

// NewPointValue wraps a point.
func NewPointValue(p Point) Value { return types.NewPoint(p) }

// NewRectValue wraps a rectangle.
func NewRectValue(r Rect) Value { return types.NewRect(r) }

// NewPolygonValue wraps a polygon.
func NewPolygonValue(p *Polygon) Value { return types.NewPolygon(p) }

// NewIntervalValue wraps an interval.
func NewIntervalValue(iv Interval) Value { return types.NewInterval(iv) }

// Geometry types, re-exported for spatial join libraries and data.

// Geometry is the common interface of spatial keys.
type Geometry = geo.Geometry

// Point is a 2-D point.
type Point = geo.Point

// Rect is an axis-aligned rectangle (MBR).
type Rect = geo.Rect

// Polygon is a simple polygon.
type Polygon = geo.Polygon

// NewPolygon builds a polygon from its vertex ring.
func NewPolygon(ring []Point) *Polygon { return geo.NewPolygon(ring) }

// EmptyRect returns the identity element for MBR union.
func EmptyRect() Rect { return geo.EmptyRect() }

// Intersects is the exact geometric intersection predicate.
func Intersects(a, b Geometry) bool { return geo.Intersects(a, b) }

// Interval is a time interval in abstract ticks.
type Interval = interval.Interval

// LineString is an open polyline (a trajectory).
type LineString = geo.LineString

// NewLineString builds a polyline from its points.
func NewLineString(points []Point) *LineString { return geo.NewLineString(points) }

// NewLineStringValue wraps a polyline.
func NewLineStringValue(ls *LineString) Value { return types.NewLineString(ls) }
