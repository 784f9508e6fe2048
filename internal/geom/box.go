package geom

import (
	"fmt"
	"strings"
)

// Box is an axis-aligned hyper-rectangle over an arbitrary number of named
// dimensions. It is the geometric representation of a subscription used by
// the subsumption checker: each filtered attribute (and, for abstract
// subscriptions, each spatial coordinate) contributes one dimension.
//
// Dimensions are identified by string keys so that boxes originating from
// different subscriptions can be compared without agreeing on an ordering.
// They are stored densely, sorted byte-wise by name (the order Dims reports),
// so the binary predicates are linear merges over two slices: no hashing, no
// allocation. A point of a box is a []float64 holding one value per
// dimension in that same order.
//
// A plain copy of a Box shares its storage. Set overwrites an existing
// dimension in place, so Clone a box that another holder still reads before
// changing it (model.Subscription hands out its cached box this way).
type Box struct {
	dims []boxDim
}

// boxDim is one named dimension of a box.
type boxDim struct {
	name string
	iv   Interval
}

// NewBoxSized returns an empty box with room for n dimensions, for builders
// that know how many they will set.
func NewBoxSized(n int) Box { return Box{dims: make([]boxDim, 0, n)} }

// find returns the position of the dimension in the sorted storage, or the
// position it would be inserted at and false. Boxes hold a handful of
// dimensions, so a linear scan beats a binary search; builders that set
// dimensions in sorted order append without scanning.
func (b Box) find(dim string) (int, bool) {
	if n := len(b.dims); n == 0 || b.dims[n-1].name < dim {
		return n, false
	}
	for i := range b.dims {
		if b.dims[i].name >= dim {
			return i, b.dims[i].name == dim
		}
	}
	return len(b.dims), false
}

// Set assigns the interval of a dimension, adding the dimension if needed,
// and returns the box to allow chaining. Use the returned box: adding a
// dimension may move the storage.
func (b Box) Set(dim string, iv Interval) Box {
	i, ok := b.find(dim)
	if !ok {
		b.dims = append(b.dims, boxDim{})
		copy(b.dims[i+1:], b.dims[i:])
		b.dims[i].name = dim
	}
	b.dims[i].iv = iv
	return b
}

// Get returns the interval of a dimension and whether it is present.
func (b Box) Get(dim string) (Interval, bool) {
	if i, ok := b.find(dim); ok {
		return b.dims[i].iv, true
	}
	return Interval{}, false
}

// Dims returns the dimension names in sorted order.
func (b Box) Dims() []string {
	out := make([]string, len(b.dims))
	for i := range b.dims {
		out[i] = b.dims[i].name
	}
	return out
}

// NumDims returns the number of dimensions of the box.
func (b Box) NumDims() int { return len(b.dims) }

// At returns the interval of the i-th dimension in Dims order.
func (b Box) At(i int) Interval { return b.dims[i].iv }

// Clone returns an independent copy of the box.
func (b Box) Clone() Box {
	return Box{dims: append([]boxDim(nil), b.dims...)}
}

// Empty reports whether any dimension of the box is empty. A box with no
// dimensions is not empty: it is the whole (zero-dimensional) space.
func (b Box) Empty() bool {
	for i := range b.dims {
		if b.dims[i].iv.Empty() {
			return true
		}
	}
	return false
}

// SameDims reports whether both boxes are defined over exactly the same set
// of dimensions.
func (b Box) SameDims(o Box) bool {
	if len(b.dims) != len(o.dims) {
		return false
	}
	for i := range b.dims {
		if b.dims[i].name != o.dims[i].name {
			return false
		}
	}
	return true
}

// Covers reports whether b fully contains o. Both boxes must be defined over
// the same dimensions; if they are not, Covers returns false, because a
// missing dimension means "the attribute is not requested at all" rather
// than "any value is acceptable" (see Section V-B of the paper).
func (b Box) Covers(o Box) bool {
	if len(b.dims) != len(o.dims) {
		return false
	}
	for i := range b.dims {
		if b.dims[i].name != o.dims[i].name || !b.dims[i].iv.Covers(o.dims[i].iv) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two boxes intersect. Boxes over different
// dimension sets never overlap.
func (b Box) Overlaps(o Box) bool {
	if len(b.dims) != len(o.dims) {
		return false
	}
	for i := range b.dims {
		if b.dims[i].name != o.dims[i].name || !b.dims[i].iv.Overlaps(o.dims[i].iv) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection box (same dimensions). The second result
// is false when the boxes have different dimensions or do not overlap.
func (b Box) Intersect(o Box) (Box, bool) {
	if !b.SameDims(o) {
		return Box{}, false
	}
	out := b.Clone()
	for i := range out.dims {
		x := out.dims[i].iv.Intersect(o.dims[i].iv)
		if x.Empty() {
			return Box{}, false
		}
		out.dims[i].iv = x
	}
	return out, true
}

// ContainsPoint reports whether the given point (one value per dimension, in
// Dims order) lies inside the box. A point with fewer values than the box has
// dimensions is outside.
func (b Box) ContainsPoint(pt []float64) bool {
	if len(pt) < len(b.dims) {
		return false
	}
	for i := range b.dims {
		if !b.dims[i].iv.Contains(pt[i]) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (b Box) String() string {
	parts := make([]string, 0, len(b.dims))
	for _, d := range b.dims {
		parts = append(parts, fmt.Sprintf("%s=%s", d.name, d.iv))
	}
	return "box{" + strings.Join(parts, ", ") + "}"
}
