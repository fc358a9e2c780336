package geo

import (
	"fmt"
	"math"

	"fudj/internal/wire"
)

// LineString is an open polyline — the geometry of a trajectory, the
// join-key type of the trajectory joins the FUDJ paper cites as a
// major application class for the framework.
type LineString struct {
	Points []Point
	mbr    Rect
	has    bool
}

// NewLineString builds a polyline and precomputes its MBR. It panics
// on fewer than 2 points, since a trajectory needs at least one
// segment.
func NewLineString(points []Point) *LineString {
	if len(points) < 2 {
		panic(fmt.Sprintf("geo: linestring needs >= 2 points, got %d", len(points)))
	}
	ls := &LineString{Points: points}
	ls.mbr = ls.computeMBR()
	ls.has = true
	return ls
}

func (ls *LineString) computeMBR() Rect {
	r := EmptyRect()
	for _, p := range ls.Points {
		r = r.Union(RectFromPoint(p))
	}
	return r
}

// MBR returns the polyline's minimum bounding rectangle.
func (ls *LineString) MBR() Rect {
	if !ls.has {
		ls.mbr = ls.computeMBR()
		ls.has = true
	}
	return ls.mbr
}

// Bounds implements Geometry.
func (ls *LineString) Bounds() Rect { return ls.MBR() }

// String implements fmt.Stringer.
func (ls *LineString) String() string {
	return fmt.Sprintf("LINESTRING(%d points, mbr=%v)", len(ls.Points), ls.MBR())
}

// MarshalWire encodes the polyline.
func (ls *LineString) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(len(ls.Points)))
	for _, p := range ls.Points {
		p.MarshalWire(e)
	}
}

// UnmarshalWire decodes a polyline and recomputes its MBR.
func (ls *LineString) UnmarshalWire(d *wire.Decoder) error {
	return ls.UnmarshalWireInto(d, newPoints)
}

// UnmarshalWireInto is UnmarshalWire with the points taken from
// points(n), as Polygon.UnmarshalWireInto takes its ring.
func (ls *LineString) UnmarshalWireInto(d *wire.Decoder, points func(n int) []Point) error {
	pts, err := readPoints(d, points)
	if err != nil {
		return err
	}
	ls.Points = pts
	ls.mbr = ls.computeMBR()
	ls.has = true
	return nil
}

// pointSegmentDistance returns the distance from p to segment a-b.
func pointSegmentDistance(p, a, b Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	lenSq := abx*abx + aby*aby
	if lenSq == 0 {
		return p.Distance(a)
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / lenSq
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return p.Distance(Point{X: a.X + t*abx, Y: a.Y + t*aby})
}

// segmentDistance returns the minimum distance between two segments.
func segmentDistance(a1, a2, b1, b2 Point) float64 {
	if segmentsIntersect(a1, a2, b1, b2) {
		return 0
	}
	return math.Min(
		math.Min(pointSegmentDistance(a1, b1, b2), pointSegmentDistance(a2, b1, b2)),
		math.Min(pointSegmentDistance(b1, a1, a2), pointSegmentDistance(b2, a1, a2)),
	)
}

// Distance returns the minimum distance between two polylines — the
// closest-approach metric trajectory joins verify against. It is exact
// (segment-to-segment) and prunes with the MBR distance first.
func (ls *LineString) Distance(other *LineString) float64 {
	min := math.Inf(1)
	for i := 0; i+1 < len(ls.Points); i++ {
		for j := 0; j+1 < len(other.Points); j++ {
			d := segmentDistance(ls.Points[i], ls.Points[i+1], other.Points[j], other.Points[j+1])
			if d < min {
				min = d
				if min == 0 {
					return 0
				}
			}
		}
	}
	return min
}

// WithinDistance reports whether two polylines approach within d,
// short-circuiting on the MBR lower bound.
func (ls *LineString) WithinDistance(other *LineString, d float64) bool {
	if ls.MBR().Distance(other.MBR()) > d {
		return false
	}
	return ls.Distance(other) <= d
}
