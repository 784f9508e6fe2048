package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewIntervalSwapsBounds(t *testing.T) {
	iv := NewInterval(5, 1)
	if iv.Min != 1 || iv.Max != 5 {
		t.Fatalf("NewInterval(5,1) = %v, want [1,5]", iv)
	}
}

func TestIntervalEmpty(t *testing.T) {
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Interval{0, 0}, false},
		{Interval{1, 2}, false},
		{Interval{2, 1}, true},
		{Point(3), false},
	}
	for _, c := range cases {
		if got := c.iv.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	iv := NewInterval(10, 20)
	for _, v := range []float64{10, 15, 20} {
		if !iv.Contains(v) {
			t.Errorf("expected %v to contain %g", iv, v)
		}
	}
	for _, v := range []float64{9.999, 20.001, -5} {
		if iv.Contains(v) {
			t.Errorf("expected %v not to contain %g", iv, v)
		}
	}
	// Min <= v <= Max alone rejects every value for an empty interval and
	// for NaN bounds or values: Contains needs no Empty test.
	nan := math.NaN()
	for _, c := range []struct {
		iv Interval
		v  float64
	}{
		{Interval{5, 1}, 3}, {Interval{5, 1}, 5}, {Interval{5, 1}, 1},
		{Interval{math.Inf(1), math.Inf(-1)}, 0},
		{Interval{nan, 20}, 15}, {Interval{10, nan}, 15}, {Interval{nan, nan}, nan},
		{iv, nan},
	} {
		if c.iv.Contains(c.v) {
			t.Errorf("%v must not contain %g", c.iv, c.v)
		}
	}
}

func TestIntervalCovers(t *testing.T) {
	outer := NewInterval(0, 100)
	inner := NewInterval(10, 20)
	if !outer.Covers(inner) {
		t.Error("outer should cover inner")
	}
	if inner.Covers(outer) {
		t.Error("inner should not cover outer")
	}
	if !outer.Covers(outer) {
		t.Error("interval should cover itself")
	}
	if !inner.Covers(Interval{5, 1}) {
		t.Error("any interval covers the empty interval")
	}
	if (Interval{5, 1}).Covers(inner) {
		t.Error("empty interval covers nothing non-empty")
	}
}

func TestIntervalOverlapsAndIntersect(t *testing.T) {
	a := NewInterval(0, 10)
	b := NewInterval(5, 15)
	c := NewInterval(11, 20)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c should not overlap")
	}
	x := a.Intersect(b)
	if x.Min != 5 || x.Max != 10 {
		t.Errorf("a∩b = %v, want [5,10]", x)
	}
	if !a.Intersect(c).Empty() {
		t.Error("a∩c should be empty")
	}
	// Touching intervals overlap at the shared endpoint (closed intervals).
	if !a.Overlaps(NewInterval(10, 12)) {
		t.Error("closed intervals sharing an endpoint overlap")
	}
}

func TestIntervalUnionExpandClampMidLerp(t *testing.T) {
	a := NewInterval(0, 10)
	b := NewInterval(20, 30)
	u := a.Union(b)
	if u.Min != 0 || u.Max != 30 {
		t.Errorf("union = %v, want [0,30]", u)
	}
	if got := a.Union(Interval{5, 1}); !got.Equal(a) {
		t.Errorf("union with empty = %v, want %v", got, a)
	}
	if got := (Interval{5, 1}).Union(b); !got.Equal(b) {
		t.Errorf("empty union b = %v, want %v", got, b)
	}
	if a.Mid() != 5 {
		t.Errorf("mid = %g, want 5", a.Mid())
	}
	if a.Lerp(0.25) != 2.5 {
		t.Errorf("lerp(0.25) = %g, want 2.5", a.Lerp(0.25))
	}
}

func TestIntervalString(t *testing.T) {
	if got := NewInterval(1, 2).String(); got != "[1, 2]" {
		t.Errorf("String() = %q", got)
	}
	if got := (Interval{3, 1}).String(); got != "[empty]" {
		t.Errorf("String() of empty = %q", got)
	}
}

// Property: Covers implies that every contained value of the inner interval
// is contained in the outer interval.
func TestPropertyCoversImpliesContainment(t *testing.T) {
	f := func(a0, a1, b0, b1, frac float64) bool {
		if math.IsNaN(a0) || math.IsNaN(a1) || math.IsNaN(b0) || math.IsNaN(b1) || math.IsNaN(frac) {
			return true
		}
		a := NewInterval(a0, a1)
		b := NewInterval(b0, b1)
		if !a.Covers(b) {
			return true
		}
		// pick a point inside b
		fr := math.Abs(frac)
		fr -= math.Floor(fr)
		v := b.Lerp(fr)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		return a.Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: intersection is covered by both operands, and if non-empty both
// operands overlap.
func TestPropertyIntersectCoveredByBoth(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		if math.IsNaN(a0) || math.IsNaN(a1) || math.IsNaN(b0) || math.IsNaN(b1) {
			return true
		}
		a := NewInterval(a0, a1)
		b := NewInterval(b0, b1)
		x := a.Intersect(b)
		if x.Empty() {
			return true
		}
		return a.Covers(x) && b.Covers(x) && a.Overlaps(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: union covers both operands.
func TestPropertyUnionCoversBoth(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		if math.IsNaN(a0) || math.IsNaN(a1) || math.IsNaN(b0) || math.IsNaN(b1) {
			return true
		}
		a := NewInterval(a0, a1)
		b := NewInterval(b0, b1)
		u := a.Union(b)
		return u.Covers(a) && u.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
