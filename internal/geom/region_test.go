package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	a := Point2D{0, 0}
	b := Point2D{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Errorf("distance = %g, want 5", d)
	}
	if d := a.DistanceTo(a); d != 0 {
		t.Errorf("distance to self = %g, want 0", d)
	}
}

func TestRegionContainsCovers(t *testing.T) {
	r := NewRegion(0, 0, 10, 10)
	if !r.Contains(Point2D{5, 5}) || !r.Contains(Point2D{0, 0}) || !r.Contains(Point2D{10, 10}) {
		t.Error("region should contain interior and border points")
	}
	if r.Contains(Point2D{11, 5}) || r.Contains(Point2D{5, -1}) {
		t.Error("region should not contain outside points")
	}
	inner := NewRegion(2, 2, 8, 8)
	if !r.Covers(inner) || inner.Covers(r) {
		t.Error("covers relation wrong")
	}
	if !r.Covers(r) {
		t.Error("region should cover itself")
	}
}

func TestRegionIntersectUnionArea(t *testing.T) {
	a := NewRegion(0, 0, 10, 10)
	b := NewRegion(5, 5, 15, 15)
	if x := a.Intersect(b); !x.Equal(NewRegion(5, 5, 10, 10)) {
		t.Errorf("intersection = %v, want [5,10]x[5,10]", x)
	}
	if u := a.Union(b); !u.Equal(NewRegion(0, 0, 15, 15)) {
		t.Errorf("union = %v, want [0,15]x[0,15]", u)
	}
	far := NewRegion(100, 100, 110, 110)
	if !a.Intersect(far).Empty() {
		t.Error("intersection of disjoint regions should be empty")
	}
	if got := a.Union(Region{X: Interval{1, 0}, Y: Interval{1, 0}}); !got.Equal(a) {
		t.Errorf("union with empty region = %v, want %v", got, a)
	}
}

func TestWholePlane(t *testing.T) {
	w := WholePlane()
	if !w.IsWholePlane() {
		t.Error("WholePlane should report IsWholePlane")
	}
	if !w.Contains(Point2D{1e12, -1e12}) {
		t.Error("whole plane contains everything")
	}
	if !w.Covers(NewRegion(-1e6, -1e6, 1e6, 1e6)) {
		t.Error("whole plane covers any region")
	}
	if w.Center() != (Point2D{}) {
		t.Error("centre of whole plane defined as origin")
	}
	if got := w.String(); got != "region(everywhere)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRegionAroundAndCenterDiameter(t *testing.T) {
	r := RegionAround(Point2D{10, 20}, 5)
	if !r.Contains(Point2D{10, 20}) || !r.Contains(Point2D{15, 25}) {
		t.Error("RegionAround should contain centre and corner")
	}
	if r.Contains(Point2D{16, 20}) {
		t.Error("RegionAround should not contain points beyond radius box")
	}
	if c := r.Center(); c.X != 10 || c.Y != 20 {
		t.Errorf("centre = %v", c)
	}
	want := math.Sqrt(200)
	if d := r.Diameter(); math.Abs(d-want) > 1e-9 {
		t.Errorf("diameter = %g, want %g", d, want)
	}
}

// Property: if region r covers region o then every point of o (its centre,
// corners) is contained in r.
func TestPropertyRegionCoversContainsCentre(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) bool {
		for _, v := range []float64{ax0, ay0, ax1, ay1, bx0, by0, bx1, by1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		a := NewRegion(ax0, ay0, ax1, ay1)
		b := NewRegion(bx0, by0, bx1, by1)
		if !a.Covers(b) {
			return true
		}
		return a.Contains(b.Center()) &&
			a.Contains(Point2D{b.X.Min, b.Y.Min}) &&
			a.Contains(Point2D{b.X.Max, b.Y.Max})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
