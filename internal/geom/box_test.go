package geom

import (
	"testing"
)

func box(pairs ...interface{}) Box {
	b := Box{}
	for i := 0; i+2 < len(pairs); i += 3 {
		b = b.Set(pairs[i].(string), NewInterval(toF(pairs[i+1]), toF(pairs[i+2])))
	}
	return b
}

func toF(v interface{}) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case float64:
		return x
	}
	panic("bad literal")
}

func TestBoxDimsAndClone(t *testing.T) {
	b := box("temp", 0, 10, "hum", 20, 30)
	dims := b.Dims()
	if len(dims) != 2 || dims[0] != "hum" || dims[1] != "temp" {
		t.Fatalf("Dims() = %v", dims)
	}
	if b.NumDims() != 2 {
		t.Fatalf("NumDims() = %d", b.NumDims())
	}
	c := b.Clone()
	c = c.Set("temp", NewInterval(100, 200))
	if iv, _ := b.Get("temp"); iv.Max != 10 {
		t.Error("Clone should not alias the original")
	}
}

func TestBoxCovers(t *testing.T) {
	outer := box("a", 0, 100, "b", 0, 100)
	inner := box("a", 10, 20, "b", 30, 40)
	if !outer.Covers(inner) {
		t.Error("outer should cover inner")
	}
	if inner.Covers(outer) {
		t.Error("inner should not cover outer")
	}
	// Different dimension sets never cover (missing attribute means
	// "unrequested", not "anything").
	widerButFewer := box("a", -1000, 1000)
	if widerButFewer.Covers(inner) {
		t.Error("box over fewer dimensions must not cover")
	}
	if inner.Covers(widerButFewer) {
		t.Error("box over more dimensions must not cover")
	}
}

func TestBoxOverlapsIntersectVolume(t *testing.T) {
	a := box("x", 0, 10, "y", 0, 10)
	b := box("x", 5, 15, "y", 5, 15)
	c := box("x", 20, 30, "y", 20, 30)
	if !a.Overlaps(b) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c do not overlap")
	}
	x, ok := a.Intersect(b)
	if !ok {
		t.Fatal("intersection should exist")
	}
	if want := box("x", 5, 10, "y", 5, 10); !x.SameDims(want) || !x.Covers(want) || !want.Covers(x) {
		t.Errorf("intersection = %v, want %v", x, want)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("intersection of disjoint boxes should not exist")
	}
	if _, ok := a.Intersect(box("x", 0, 1)); ok {
		t.Error("intersection across different dimension sets should not exist")
	}
}

func TestBoxContainsPoint(t *testing.T) {
	b := box("x", 0, 10, "y", 0, 10)
	if !b.ContainsPoint([]float64{5, 5}) {
		t.Error("point inside should be contained")
	}
	if b.ContainsPoint([]float64{5, 15}) {
		t.Error("point outside should not be contained")
	}
	if b.ContainsPoint([]float64{5}) {
		t.Error("point missing a dimension should not be contained")
	}
}

func TestBoxEmptyAndString(t *testing.T) {
	if (Box{}).Empty() {
		t.Error("zero-dimensional box is not empty")
	}
	e := Box{}.Set("x", Interval{5, 1})
	if !e.Empty() {
		t.Error("box with an empty dimension is empty")
	}
	s := box("a", 0, 1, "b", 2, 3).String()
	if s != "box{a=[0, 1], b=[2, 3]}" {
		t.Errorf("String() = %q", s)
	}
}

// The dense representation keeps dimensions sorted byte-wise by name whatever
// order they were set in; the subsumption checker's sampling order (and so
// its verdicts) depends on it.
func TestBoxDenseRepresentation(t *testing.T) {
	iv := func(lo, hi float64) Interval { return NewInterval(lo, hi) }
	type set struct {
		dim string
		iv  Interval
	}
	cases := []struct {
		name     string
		sets     []set
		wantDims []string
		wantIvs  []Interval
	}{
		{"empty", nil, []string{}, nil},
		{"sorted insertion", []set{{"a:x", iv(0, 1)}, {"a:y", iv(2, 3)}},
			[]string{"a:x", "a:y"}, []Interval{iv(0, 1), iv(2, 3)}},
		{"reverse insertion", []set{{"a:y", iv(2, 3)}, {"a:x", iv(0, 1)}},
			[]string{"a:x", "a:y"}, []Interval{iv(0, 1), iv(2, 3)}},
		{"location dimensions sort before attributes and sensors",
			[]set{{"d:s1", iv(8, 9)}, {"a:wind", iv(0, 1)}, {"__loc_y", iv(4, 5)}, {"a:Temp", iv(6, 7)}, {"__loc_x", iv(2, 3)}},
			[]string{"__loc_x", "__loc_y", "a:Temp", "a:wind", "d:s1"},
			[]Interval{iv(2, 3), iv(4, 5), iv(6, 7), iv(0, 1), iv(8, 9)}},
		{"set overwrites", []set{{"b", iv(0, 1)}, {"a", iv(0, 1)}, {"b", iv(5, 6)}},
			[]string{"a", "b"}, []Interval{iv(0, 1), iv(5, 6)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := Box{}
			asMap := map[string]Interval{}
			for _, s := range tc.sets {
				b = b.Set(s.dim, s.iv)
				asMap[s.dim] = s.iv
			}
			dims := b.Dims()
			if len(dims) != len(tc.wantDims) || b.NumDims() != len(tc.wantDims) {
				t.Fatalf("Dims() = %v, want %v", dims, tc.wantDims)
			}
			for i, d := range tc.wantDims {
				if dims[i] != d {
					t.Fatalf("Dims() = %v, want %v", dims, tc.wantDims)
				}
				if b.At(i) != tc.wantIvs[i] {
					t.Errorf("At(%d) = %v, want %v", i, b.At(i), tc.wantIvs[i])
				}
				if got, ok := b.Get(d); !ok || got != tc.wantIvs[i] {
					t.Errorf("Get(%q) = %v, %v", d, got, ok)
				}
			}
			if _, ok := b.Get("missing"); ok {
				t.Error("Get of an absent dimension reported present")
			}
			// Any insertion order yields the same box.
			for range 4 {
				o := Box{}
				for d, iv := range asMap {
					o = o.Set(d, iv)
				}
				if !b.SameDims(o) || !b.Covers(o) || !o.Covers(b) {
					t.Fatalf("box set in map order from %v = %v, want %v", asMap, o, b)
				}
			}
		})
	}

	a := box("x", 0, 10, "y", 0, 10)
	if a.SameDims(box("x", 0, 10, "z", 0, 10)) || a.SameDims(box("x", 0, 10)) {
		t.Error("SameDims accepted a different dimension set")
	}
	if a.Overlaps(box("x", 0, 10, "z", 0, 10)) || a.Covers(box("x", 1, 2, "z", 1, 2)) {
		t.Error("boxes over different dimensions neither overlap nor cover")
	}
}
