package geom

import (
	"fmt"
	"math"
)

// Point2D is a location in the 2D plane. The paper models sensor locations as
// values from a location domain; this library uses planar coordinates
// (metres, or any other consistent unit).
type Point2D struct {
	X float64
	Y float64
}

// DistanceTo returns the Euclidean distance between the two points.
func (p Point2D) DistanceTo(o Point2D) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point2D) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Region is an axis-aligned rectangle in the 2D location domain. It is the
// concrete realisation of the paper's spatial constraint L ⊆ ℒ used by
// abstract subscriptions ("all temperature sensors inside this area").
type Region struct {
	X Interval
	Y Interval
}

// NewRegion constructs a region from two opposite corner coordinates. The
// corners may be given in any order.
func NewRegion(x0, y0, x1, y1 float64) Region {
	return Region{X: NewInterval(x0, x1), Y: NewInterval(y0, y1)}
}

// RegionAround returns the square region of half-width radius centred on p.
func RegionAround(p Point2D, radius float64) Region {
	return Region{
		X: Interval{Min: p.X - radius, Max: p.X + radius},
		Y: Interval{Min: p.Y - radius, Max: p.Y + radius},
	}
}

// WholePlane returns a region that contains every representable location. It
// is used when a subscription carries no spatial constraint.
func WholePlane() Region {
	return Region{
		X: Interval{Min: math.Inf(-1), Max: math.Inf(1)},
		Y: Interval{Min: math.Inf(-1), Max: math.Inf(1)},
	}
}

// Empty reports whether the region contains no points.
func (r Region) Empty() bool { return r.X.Empty() || r.Y.Empty() }

// IsWholePlane reports whether the region is unbounded in both dimensions.
func (r Region) IsWholePlane() bool {
	return math.IsInf(r.X.Min, -1) && math.IsInf(r.X.Max, 1) &&
		math.IsInf(r.Y.Min, -1) && math.IsInf(r.Y.Max, 1)
}

// Contains reports whether the point lies inside the region.
func (r Region) Contains(p Point2D) bool {
	return r.X.Contains(p.X) && r.Y.Contains(p.Y)
}

// Covers reports whether r fully contains o.
func (r Region) Covers(o Region) bool {
	if o.Empty() {
		return true
	}
	return r.X.Covers(o.X) && r.Y.Covers(o.Y)
}

// Intersect returns the overlap of the two regions (possibly empty).
func (r Region) Intersect(o Region) Region {
	return Region{X: r.X.Intersect(o.X), Y: r.Y.Intersect(o.Y)}
}

// Union returns the bounding box of the two regions.
func (r Region) Union(o Region) Region {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Region{X: r.X.Union(o.X), Y: r.Y.Union(o.Y)}
}

// Center returns the midpoint of the region. The centre of an unbounded
// region is the origin.
func (r Region) Center() Point2D {
	if r.IsWholePlane() {
		return Point2D{}
	}
	return Point2D{X: r.X.Mid(), Y: r.Y.Mid()}
}

// Diameter returns the maximum distance between any two points in the region.
func (r Region) Diameter() float64 {
	if r.Empty() {
		return 0
	}
	return math.Sqrt(r.X.Width()*r.X.Width() + r.Y.Width()*r.Y.Width())
}

// Equal reports whether the two regions have identical bounds.
func (r Region) Equal(o Region) bool { return r.X.Equal(o.X) && r.Y.Equal(o.Y) }

// String implements fmt.Stringer.
func (r Region) String() string {
	if r.IsWholePlane() {
		return "region(everywhere)"
	}
	return fmt.Sprintf("region(x=%s, y=%s)", r.X, r.Y)
}
