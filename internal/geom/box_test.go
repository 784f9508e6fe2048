package geom

import (
	"fmt"
	"testing"
)

// box builds a box from (min, max) pairs, one pair per dimension.
func box(bounds ...float64) Box {
	b := make(Box, 0, len(bounds)/2)
	for i := 0; i+1 < len(bounds); i += 2 {
		b = append(b, NewInterval(bounds[i], bounds[i+1]))
	}
	return b
}

func TestBoxCovers(t *testing.T) {
	outer := box(0, 100, 0, 100)
	inner := box(10, 20, 30, 40)
	if !outer.Covers(inner) {
		t.Error("outer should cover inner")
	}
	if inner.Covers(outer) {
		t.Error("inner should not cover outer")
	}
	if !outer.Covers(outer) {
		t.Error("a box covers itself")
	}
	// Boxes of different lengths never cover (a missing dimension means
	// "unrequested", not "anything").
	widerButFewer := box(-1000, 1000)
	if widerButFewer.Covers(inner) {
		t.Error("box over fewer dimensions must not cover")
	}
	if inner.Covers(widerButFewer) {
		t.Error("box over more dimensions must not cover")
	}
}

func TestBoxOverlapsIntersectVolume(t *testing.T) {
	a := box(0, 10, 0, 10)
	b := box(5, 15, 5, 15)
	c := box(20, 30, 20, 30)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c do not overlap")
	}
	// Overlapping in one dimension is not enough.
	if a.Overlaps(box(5, 15, 20, 30)) {
		t.Error("boxes disjoint in the second dimension do not overlap")
	}
	if a.Overlaps(box(0, 10)) || box(0, 10).Overlaps(a) {
		t.Error("boxes of different lengths never overlap")
	}
	// Two boxes of one length overlap exactly when every dimension's
	// intersection is non-empty.
	for _, o := range []Box{b, c, box(5, 15, 20, 30), box(10, 11, 10, 11), box(11, 12, 0, 1)} {
		nonEmpty := true
		for i := range a {
			nonEmpty = nonEmpty && !a[i].Intersect(o[i]).Empty()
		}
		if a.Overlaps(o) != nonEmpty {
			t.Errorf("%v overlaps %v = %v, per-dimension intersections non-empty = %v", a, o, a.Overlaps(o), nonEmpty)
		}
	}
}

func TestBoxContainsPoint(t *testing.T) {
	b := box(0, 10, 0, 10)
	if !b.ContainsPoint([]float64{5, 5}) {
		t.Error("point inside should be contained")
	}
	if b.ContainsPoint([]float64{5, 15}) {
		t.Error("point outside should not be contained")
	}
	if b.ContainsPoint([]float64{5}) {
		t.Error("point missing a dimension should not be contained")
	}
	// The point's values are read by position.
	if !box(0, 1, 10, 20).ContainsPoint([]float64{1, 10}) || box(0, 1, 10, 20).ContainsPoint([]float64{10, 1}) {
		t.Error("point values must be read in box order")
	}
}

func TestBoxEmptyAndString(t *testing.T) {
	if (Box{}).Empty() {
		t.Error("zero-dimensional box is not empty")
	}
	if !(Box{{0, 1}, {5, 1}}).Empty() {
		t.Error("box with an empty dimension is empty")
	}
	if box(0, 1, 2, 2).Empty() {
		t.Error("a zero-width dimension is not empty")
	}
	// A box prints as its intervals in position order.
	if s := fmt.Sprint(box(0, 1, 2, 3)); s != "[[0, 1] [2, 3]]" {
		t.Errorf("Sprint = %q", s)
	}
}

// A box is dense and positional: dimension i of one box is compared with
// dimension i of the other, so the same intervals in another order are
// another box, and boxes of different lengths are unrelated.
func TestBoxDenseRepresentation(t *testing.T) {
	cases := []struct {
		name             string
		a, b             Box
		covers, overlaps bool
		point            []float64 // a point of a's length
		contained        bool
	}{
		{"empty", Box{}, Box{}, true, true, []float64{}, true},
		{"position by position", box(0, 10, 20, 30), box(2, 3, 21, 22), true, true, []float64{5, 25}, true},
		{"same intervals, other order", box(0, 10, 20, 30), box(20, 30, 0, 10), false, false, []float64{25, 5}, false},
		{"lengths differ", box(0, 10, 20, 30), box(0, 10), false, false, []float64{5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Covers(tc.b); got != tc.covers {
				t.Errorf("%v covers %v = %v, want %v", tc.a, tc.b, got, tc.covers)
			}
			if got := tc.a.Overlaps(tc.b); got != tc.overlaps || tc.b.Overlaps(tc.a) != got {
				t.Errorf("%v overlaps %v = %v, want %v both ways", tc.a, tc.b, got, tc.overlaps)
			}
			if got := tc.a.ContainsPoint(tc.point); got != tc.contained {
				t.Errorf("%v contains %v = %v, want %v", tc.a, tc.point, got, tc.contained)
			}
			if tc.a.Empty() {
				t.Errorf("%v is not empty", tc.a)
			}
		})
	}
}
