package geom

// Box is an axis-aligned hyper-rectangle: one interval per dimension. It is
// the geometric representation of a subscription used by the subsumption
// checker, where each filtered attribute (and, for a bounded abstract
// subscription, each spatial coordinate) contributes one dimension.
//
// Dimensions are positional. A Box does not name them: its owner decides
// which dimension each position is (model.Subscription.Box lays a box out as
// region X, region Y when bounded, then one interval per filter in key
// order), and compares two boxes only when it already knows they are laid
// out alike. A point of a box is a []float64 holding one value per
// dimension in the same order.
//
// Boxes of different lengths never cover or overlap: a missing dimension
// means "not requested at all", not "any value" (Section V-B of the paper).
// Within one comparability class that is the case of a whole-plane abstract
// subscription beside a bounded one, so the whole-plane box never joins a
// union covering the bounded one. The set filter's verdicts, and with them
// Filter-Split-Forward's subscription load, rest on this rule: changing it
// moves that load.
//
// A Box shares its storage with its copies; model.Subscription hands out its
// cached box, which nobody may change.
type Box []Interval

// Empty reports whether any dimension of the box is empty. A box with no
// dimensions is not empty: it is the whole (zero-dimensional) space.
func (b Box) Empty() bool {
	for _, iv := range b {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Covers reports whether b fully contains o. Boxes of different lengths
// never cover each other.
func (b Box) Covers(o Box) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if !b[i].Covers(o[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two boxes intersect. Boxes of different
// lengths never overlap.
func (b Box) Overlaps(o Box) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if !b[i].Overlaps(o[i]) {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the given point (one value per dimension, in
// box order) lies inside the box. A point with fewer values than the box has
// dimensions is outside.
func (b Box) ContainsPoint(pt []float64) bool {
	if len(pt) < len(b) {
		return false
	}
	for i := range b {
		if !b[i].Contains(pt[i]) {
			return false
		}
	}
	return true
}
