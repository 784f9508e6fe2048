// Package geom provides the small geometric vocabulary used throughout the
// library — closed numeric intervals, 2D points and rectangular regions, and
// axis-aligned hyper-rectangles ("boxes", one interval per dimension, by
// position) used by the subsumption checker — plus the spatial index the
// matching fast path is built on: BoxTree, an incrementally maintained
// (O(log n) insert/remove, AVL-style rotations, pooled nodes) point-stabbing
// tree over k-dimensional boxes, the composite multi-attribute structure
// behind the event-match index.
//
// Nothing here names a dimension: a box's owner knows what each position
// means (see Box). Interval, Point2D and Region are plain values: safe to
// copy, compare and use as map values, with meaningful zero values (the zero
// Interval is the degenerate point [0,0], the zero Region is the degenerate
// point region at the origin). A Box is a slice and shares its storage with
// its copies. The index is not safe for concurrent use.
package geom

import (
	"fmt"
	"math"
)

// Interval is a closed interval [Min, Max] over float64 values.
//
// An Interval with Min > Max is treated as empty. The helpers below never
// produce NaN bounds; callers are expected not to construct intervals from
// NaN inputs.
type Interval struct {
	Min float64
	Max float64
}

// NewInterval returns the closed interval [min, max]. If min > max the two
// bounds are swapped so that the result is always a well-formed interval.
func NewInterval(min, max float64) Interval {
	if min > max {
		min, max = max, min
	}
	return Interval{Min: min, Max: max}
}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{Min: v, Max: v} }

// Empty reports whether the interval contains no values (Min > Max).
func (iv Interval) Empty() bool { return iv.Min > iv.Max }

// Width returns the length of the interval, or 0 if it is empty.
func (iv Interval) Width() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Max - iv.Min
}

// Contains reports whether v is in the closed interval (never if empty or NaN).
func (iv Interval) Contains(v float64) bool {
	return v >= iv.Min && v <= iv.Max
}

// Covers reports whether iv fully contains o, i.e. every value of o is also a
// value of iv. Every interval covers the empty interval.
func (iv Interval) Covers(o Interval) bool {
	if o.Empty() {
		return true
	}
	if iv.Empty() {
		return false
	}
	return iv.Min <= o.Min && iv.Max >= o.Max
}

// Overlaps reports whether the two intervals share at least one value.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.Empty() || o.Empty() {
		return false
	}
	return iv.Min <= o.Max && o.Min <= iv.Max
}

// Intersect returns the intersection of the two intervals. The returned
// interval is empty (Min > Max) when they do not overlap.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Min: math.Max(iv.Min, o.Min), Max: math.Min(iv.Max, o.Max)}
}

// Union returns the smallest interval covering both iv and o. Empty operands
// are ignored.
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{Min: math.Min(iv.Min, o.Min), Max: math.Max(iv.Max, o.Max)}
}

// Mid returns the midpoint of the interval. It is computed as
// Min + (Max-Min)/2 so that intervals with very large magnitudes do not
// overflow.
func (iv Interval) Mid() float64 { return iv.Min + (iv.Max-iv.Min)/2 }

// Equal reports whether the two intervals have identical bounds. Two empty
// intervals are considered equal regardless of their bounds.
func (iv Interval) Equal(o Interval) bool {
	if iv.Empty() && o.Empty() {
		return true
	}
	return iv.Min == o.Min && iv.Max == o.Max
}

// Lerp returns the value at fraction f (0..1) between Min and Max.
func (iv Interval) Lerp(f float64) float64 {
	return iv.Min + f*(iv.Max-iv.Min)
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%g, %g]", iv.Min, iv.Max)
}
