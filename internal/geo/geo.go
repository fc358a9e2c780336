// Package geo provides the 2-D geometry substrate used by the spatial
// join implementations: points, axis-aligned rectangles (MBRs), simple
// polygons, and the predicates the paper's queries rely on
// (ST_Contains, intersects, ST_Distance). It also hosts the
// plane-sweep rectangle join used by the advanced built-in spatial
// operator of §VII-F.
package geo

import (
	"fmt"
	"math"

	"fudj/internal/wire"
)

// Point is a 2-D point.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("POINT(%g %g)", p.X, p.Y) }

// MarshalWire encodes the point.
func (p Point) MarshalWire(e *wire.Encoder) {
	e.Float64(p.X)
	e.Float64(p.Y)
}

// UnmarshalWire decodes the point.
func (p *Point) UnmarshalWire(d *wire.Decoder) error {
	var err error
	if p.X, err = d.Float64(); err != nil {
		return err
	}
	p.Y, err = d.Float64()
	return err
}

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle, the minimum bounding rectangle
// (MBR) representation used throughout PBSM-style partitioning.
// A Rect with MinX > MaxX is the canonical empty rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r covers no area and no point.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "RECT(empty)"
	}
	return fmt.Sprintf("RECT(%g %g, %g %g)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// MarshalWire encodes the rectangle.
func (r Rect) MarshalWire(e *wire.Encoder) {
	e.Float64(r.MinX)
	e.Float64(r.MinY)
	e.Float64(r.MaxX)
	e.Float64(r.MaxY)
}

// UnmarshalWire decodes the rectangle.
func (r *Rect) UnmarshalWire(d *wire.Decoder) error {
	var err error
	if r.MinX, err = d.Float64(); err != nil {
		return err
	}
	if r.MinY, err = d.Float64(); err != nil {
		return err
	}
	if r.MaxX, err = d.Float64(); err != nil {
		return err
	}
	r.MaxY, err = d.Float64()
	return err
}

// RectFromPoint returns the degenerate MBR of a single point.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Intersects reports whether r and s share at least one point.
// Boundary touching counts as intersection, matching ST_Intersects.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Width returns the horizontal extent of r, or 0 if empty.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the vertical extent of r, or 0 if empty.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r, or 0 if empty.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Distance returns the minimum distance between r and s
// (0 when they intersect).
func (r Rect) Distance(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.MinX-s.MaxX, s.MinX-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-s.MaxY, s.MinY-r.MaxY))
	return math.Hypot(dx, dy)
}

// Polygon is a simple polygon given by its vertex ring. The ring is
// implicitly closed (the last vertex connects back to the first).
type Polygon struct {
	Ring []Point
	mbr  Rect
	has  bool
}

// NewPolygon builds a polygon and precomputes its MBR. It panics if the
// ring has fewer than 3 vertices, since such a ring cannot bound area.
func NewPolygon(ring []Point) *Polygon {
	if len(ring) < 3 {
		panic(fmt.Sprintf("geo: polygon needs >= 3 vertices, got %d", len(ring)))
	}
	p := &Polygon{Ring: ring}
	p.mbr = p.computeMBR()
	p.has = true
	return p
}

func (p *Polygon) computeMBR() Rect {
	r := EmptyRect()
	for _, v := range p.Ring {
		r = r.Union(RectFromPoint(v))
	}
	return r
}

// MBR returns the polygon's minimum bounding rectangle.
func (p *Polygon) MBR() Rect {
	if !p.has {
		p.mbr = p.computeMBR()
		p.has = true
	}
	return p.mbr
}

// String implements fmt.Stringer.
func (p *Polygon) String() string {
	return fmt.Sprintf("POLYGON(%d vertices, mbr=%v)", len(p.Ring), p.MBR())
}

// MarshalWire encodes the polygon ring.
func (p *Polygon) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(len(p.Ring)))
	for _, v := range p.Ring {
		v.MarshalWire(e)
	}
}

// UnmarshalWire decodes a polygon ring and recomputes its MBR.
func (p *Polygon) UnmarshalWire(d *wire.Decoder) error {
	return p.UnmarshalWireInto(d, newPoints)
}

// UnmarshalWireInto is UnmarshalWire with the ring taken from ring(n),
// once the input is known to hold its n vertices: a decoder of many
// polygons carves their rings from slabs of its own. Like UnmarshalWire
// it takes a ring of any length, where NewPolygon would panic.
func (p *Polygon) UnmarshalWireInto(d *wire.Decoder, ring func(n int) []Point) error {
	pts, err := readPoints(d, ring)
	if err != nil {
		return err
	}
	p.Ring = pts
	p.mbr = p.computeMBR()
	p.has = true
	return nil
}

// readPoints decodes a ring's or a polyline's points into room(n): a
// count, bounded by the input left at 16 bytes a point, then the points.
func readPoints(d *wire.Decoder, room func(n int) []Point) ([]Point, error) {
	n, err := d.UvarintCount(16) // each point is two float64s
	if err != nil {
		return nil, err
	}
	pts := room(n)
	for i := range pts {
		if err := pts[i].UnmarshalWire(d); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

func newPoints(n int) []Point { return make([]Point, n) }

// ContainsPoint reports whether q is inside the polygon (or on its
// boundary, within floating-point tolerance) using the even-odd
// ray-casting rule. This is the engine of the paper's ST_Contains
// predicate for park boundaries.
func (p *Polygon) ContainsPoint(q Point) bool {
	if !p.MBR().ContainsPoint(q) {
		return false
	}
	inside := false
	n := len(p.Ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := p.Ring[i], p.Ring[j]
		// Boundary check: q on segment a-b.
		if onSegment(a, b, q) {
			return true
		}
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xCross := (b.X-a.X)*(q.Y-a.Y)/(b.Y-a.Y) + a.X
			if q.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

const segEps = 1e-12

func onSegment(a, b, q Point) bool {
	cross := (b.X-a.X)*(q.Y-a.Y) - (b.Y-a.Y)*(q.X-a.X)
	if math.Abs(cross) > segEps*math.Max(1, math.Max(math.Abs(b.X-a.X), math.Abs(b.Y-a.Y))) {
		return false
	}
	dot := (q.X-a.X)*(b.X-a.X) + (q.Y-a.Y)*(b.Y-a.Y)
	if dot < 0 {
		return false
	}
	lenSq := (b.X-a.X)*(b.X-a.X) + (b.Y-a.Y)*(b.Y-a.Y)
	return dot <= lenSq
}

// segmentsIntersect reports whether segments p1-p2 and q1-q2 intersect.
func segmentsIntersect(p1, p2, q1, q2 Point) bool {
	d1 := orient(q1, q2, p1)
	d2 := orient(q1, q2, p2)
	d3 := orient(p1, p2, q1)
	d4 := orient(p1, p2, q2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(q1, q2, p1)) ||
		(d2 == 0 && onSegment(q1, q2, p2)) ||
		(d3 == 0 && onSegment(p1, p2, q1)) ||
		(d4 == 0 && onSegment(p1, p2, q2))
}

func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Intersects reports whether two polygons share at least one point:
// either an edge of one crosses an edge of the other, or one contains
// a vertex of the other.
func (p *Polygon) Intersects(q *Polygon) bool {
	if !p.MBR().Intersects(q.MBR()) {
		return false
	}
	np, nq := len(p.Ring), len(q.Ring)
	for i := 0; i < np; i++ {
		a1 := p.Ring[i]
		a2 := p.Ring[(i+1)%np]
		for j := 0; j < nq; j++ {
			b1 := q.Ring[j]
			b2 := q.Ring[(j+1)%nq]
			if segmentsIntersect(a1, a2, b1, b2) {
				return true
			}
		}
	}
	return p.ContainsPoint(q.Ring[0]) || q.ContainsPoint(p.Ring[0])
}
