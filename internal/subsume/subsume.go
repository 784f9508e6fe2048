// Package subsume implements the subscription-subsumption checks the paper's
// protocols rely on:
//
//   - pairwise covering (is a new subscription covered by a single existing
//     one?), used by the operator-placement and multi-join competitors, and
//   - set subsumption (is a new subscription covered by the union of a set of
//     existing ones?), used by the Filter-Split-Forward approach.
//
// Exact set subsumption for range subscriptions is co-NP complete [Srivastava
// 1992]; following the paper (and its reference [15], Ouksel et al.,
// Middleware 2006) this package provides a probabilistic checker with a
// configurable false-positive probability, plus an exact checker used for
// small dimensionalities, tests and the recall oracle.
package subsume

import (
	"fmt"
	"math"
	"slices"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// Checker decides whether a candidate subscription is subsumed by a set of
// previously accepted subscriptions. Implementations may be probabilistic;
// the contract is:
//
//   - a "false" answer is always safe (the subscription is simply forwarded),
//   - a "true" answer may be wrong with at most the configured error
//     probability, in which case events falling into the uncovered gaps are
//     lost (reduced recall),
//   - a verdict is a pure function of the candidate and the set's contents,
//
// and two properties core's retraction path rests on (it re-verifies, after
// an operator is retracted, only the covered operators that operator could
// have supported):
//
//   - Locality. A verdict depends only on the members that are Relevant to
//     the candidate: comparable with it (same model.Class) and either
//     covering it on their own or overlapping its box. Adding or removing any
//     other member never changes the verdict.
//   - Monotonicity. Adding members never turns a "true" into a "false".
//
// ExactChecker bends monotonicity in one corner: when its subtraction budget
// runs out it answers a conservative "false", so a larger set can exhaust a
// budget a smaller one did not. Its "true" answers are exact, and it obeys
// locality without exception (members it skips cost no budget), so leaving
// an operator it declared covered alone, after an irrelevant member went
// away, is still sound.
type Checker interface {
	// Subsumed reports whether candidate is covered by the union of the
	// given set. The set is expected to contain only subscriptions with the
	// same signature key (same attribute/sensor set) as the candidate;
	// others are ignored.
	Subsumed(candidate *model.Subscription, set []*model.Subscription) bool
	// Name identifies the checker in reports and ablation benchmarks.
	Name() string
}

// PairwiseCovered reports whether candidate is covered by at least one single
// member of set (same-signature members only). This is the filtering used by
// the operator-placement and distributed multi-join approaches.
func PairwiseCovered(candidate *model.Subscription, set []*model.Subscription) bool {
	for _, s := range set {
		if candidate.CoveredBy(s) {
			return true
		}
	}
	return false
}

// PairwiseChecker adapts PairwiseCovered to the Checker interface.
type PairwiseChecker struct{}

// Subsumed implements Checker.
func (PairwiseChecker) Subsumed(candidate *model.Subscription, set []*model.Subscription) bool {
	return PairwiseCovered(candidate, set)
}

// Name implements Checker.
func (PairwiseChecker) Name() string { return "pairwise" }

// NoneChecker never detects subsumption; it models the naive approach.
type NoneChecker struct{}

// Subsumed implements Checker.
func (NoneChecker) Subsumed(*model.Subscription, []*model.Subscription) bool { return false }

// Name implements Checker.
func (NoneChecker) Name() string { return "none" }

// Relevant reports whether member can influence a checker's verdict on
// candidate — the locality property of the Checker contract in executable
// form. Callers that know which member left a set use it to find the
// candidates whose verdict may have changed.
func Relevant(candidate, member *model.Subscription) bool {
	return candidate.ComparableWith(member) &&
		(candidate.CoveredByComparable(member) || candidate.Box().Overlaps(member.Box()))
}

// relevantBoxes scans the set for the members that matter to a decision on
// the candidate. It reports true as soon as a single member covers the
// candidate (exact and cheap); otherwise it appends to dst (pass a reused
// buffer's [:0] reslice, or nil to allocate) the boxes of the comparable
// members overlapping the candidate's box — only those can take part in a
// union covering it (Section V-B).
func relevantBoxes(dst []geom.Box, candidate *model.Subscription, set []*model.Subscription) (boxes []geom.Box, covered bool) {
	cbox := candidate.Box()
	for _, s := range set {
		if s == nil || !candidate.ComparableWith(s) {
			continue
		}
		if candidate.CoveredByComparable(s) {
			return dst, true
		}
		if b := s.Box(); b.Overlaps(cbox) {
			dst = append(dst, b)
		}
	}
	return dst, false
}

// coveredByUnionAtPoint reports whether the point lies inside at least one of
// the boxes.
func coveredByUnionAtPoint(pt []float64, boxes []geom.Box) bool {
	for _, b := range boxes {
		if b.ContainsPoint(pt) {
			return true
		}
	}
	return false
}

const (
	// minGapFraction is the smallest relative gap volume the set checker is
	// calibrated to detect.
	minGapFraction = 0.05
	// maxSamples caps the per-decision sampling effort.
	maxSamples = 4096
)

// SetChecker is the probabilistic set-subsumption checker (the paper's "set
// filtering"). It decides coverage of the candidate's box by the union of the
// set's boxes via Monte-Carlo sampling: if any sampled point of the candidate
// is not covered by the union the candidate is not subsumed; if all samples
// are covered the candidate is declared subsumed. A "subsumed" answer can
// therefore be a false positive — the uncovered gaps then lose events, which
// is exactly the recall/traffic trade-off of Section VI-F; a "not subsumed"
// answer is always safe.
//
// The number of samples is derived from ErrorProbability and minGapFraction:
// if the uncovered part of the candidate occupies at least minGapFraction of
// its volume, the probability that all samples miss it (a false positive) is
// at most ErrorProbability. Smaller error probabilities therefore cost more
// samples — the processing/recall trade-off discussed in Section VI-F.
type SetChecker struct {
	// ErrorProbability is the acceptable probability of a false "subsumed"
	// decision for gaps of relative volume at least minGapFraction.
	ErrorProbability float64
	// seed drives the sampling. Each decision derives its own RNG from the
	// seed and the candidate's identity, so a verdict depends only on the
	// (candidate, set) pair — never on how many decisions were made before
	// it. That makes the sequential and concurrent engines reach identical
	// filtering verdicts even though they interleave decisions differently,
	// which the cross-engine conformance suite relies on.
	seed int64

	// boxScratch and pt back Subsumed's per-decision collections. Checkers
	// are per-node (core.Config.Checker) and nodes execute sequentially, so
	// one buffer set per checker suffices; Subsumed clears the boxes it used
	// before returning, so no member's box outlives the decision, and every
	// value of pt it reads was written by the same decision.
	boxScratch []geom.Box
	pt         []float64
}

// NewSetChecker returns a set-subsumption checker with the given error
// probability (must be in (0,1)) and a deterministic sampling seed.
func NewSetChecker(errorProbability float64, seed int64) *SetChecker {
	if errorProbability <= 0 || errorProbability >= 1 {
		panic(fmt.Sprintf("subsume: error probability must be in (0,1), got %g", errorProbability))
	}
	return &SetChecker{
		ErrorProbability: errorProbability,
		seed:             seed,
	}
}

// decisionSeed derives the seed of one subsumption decision's sampling
// stream from the checker seed and the candidate identity (FNV-1a over the
// ID).
func (c *SetChecker) decisionSeed(id model.SubscriptionID) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return c.seed ^ int64(h)
}

// Name implements Checker.
func (c *SetChecker) Name() string {
	return fmt.Sprintf("set-filter(err=%g)", c.ErrorProbability)
}

// Samples returns the number of Monte-Carlo samples a single decision uses.
func (c *SetChecker) Samples() int {
	n := int(math.Ceil(math.Log(c.ErrorProbability) / math.Log(1-minGapFraction)))
	return min(max(n, 8), maxSamples)
}

// Subsumed implements Checker.
func (c *SetChecker) Subsumed(candidate *model.Subscription, set []*model.Subscription) bool {
	overlapping, covered := relevantBoxes(c.boxScratch[:0], candidate, set)
	covered = covered || len(overlapping) > 0 && c.sampledCovered(candidate, overlapping)
	clear(overlapping)
	c.boxScratch = overlapping[:0]
	return covered
}

// sampledCovered is the Monte-Carlo test of Subsumed: whether every sampled
// point of the candidate's box lies in one of the overlapping boxes.
func (c *SetChecker) sampledCovered(candidate *model.Subscription, overlapping []geom.Box) bool {
	// One value per dimension of the candidate's box, in box order (region X,
	// Y when bounded, then slot order); the overlapping boxes are laid out
	// alike. That order, and drawing nothing for a zero-width dimension, fix
	// the stream's use and with it every verdict.
	cbox := candidate.Box()
	pt := slices.Grow(c.pt[:0], len(cbox))[:len(cbox)]
	c.pt = pt
	var rng stats.RNG
	rng.Seed(c.decisionSeed(candidate.ID))
	for i, samples := 0, c.Samples(); i < samples; i++ {
		for d := range pt {
			iv := cbox[d]
			if iv.Width() == 0 {
				pt[d] = iv.Min
			} else {
				pt[d] = iv.Lerp(rng.Float64())
			}
		}
		if !coveredByUnionAtPoint(pt, overlapping) {
			return false
		}
	}
	return true
}

// ExactChecker decides set subsumption exactly by recursive box subtraction.
// Its worst case is exponential in the number of overlapping subscriptions,
// so it is intended for tests, the recall oracle and ablation studies rather
// than the protocol hot path.
type ExactChecker struct {
	// MaxDepth bounds the recursion; when exceeded the checker
	// conservatively answers "not subsumed" (safe direction). Zero means
	// the default of 10_000 subtraction steps.
	MaxDepth int
}

// Name implements Checker.
func (ExactChecker) Name() string { return "exact" }

// Subsumed implements Checker.
func (c ExactChecker) Subsumed(candidate *model.Subscription, set []*model.Subscription) bool {
	overlapping, covered := relevantBoxes(nil, candidate, set)
	if covered {
		return true
	}
	if len(overlapping) == 0 {
		// Also the answer for an empty candidate box, which subtraction
		// would call covered by anything: locality (see Checker) allows it
		// no support but a single cover.
		return false
	}
	budget := c.MaxDepth
	if budget <= 0 {
		budget = 10000
	}
	covered, ok := boxCoveredByUnion(candidate.Box(), overlapping, &budget)
	return ok && covered
}

// boxCoveredByUnion reports whether box is fully covered by the union of
// covers, by subtracting the first overlapping cover and recursing on the
// remaining fragments. The budget bounds the number of fragments examined;
// when exhausted ok is false and the caller must treat the result as unknown.
func boxCoveredByUnion(box geom.Box, covers []geom.Box, budget *int) (covered, ok bool) {
	if *budget <= 0 {
		return false, false
	}
	*budget--
	if box.Empty() {
		return true, true
	}
	for i, cv := range covers {
		if !cv.Overlaps(box) {
			continue
		}
		if cv.Covers(box) {
			return true, true
		}
		fragments := subtractBox(box, cv)
		rest := covers[i+1:]
		for _, frag := range fragments {
			c, o := boxCoveredByUnion(frag, rest, budget)
			if !o {
				return false, false
			}
			if !c {
				return false, true
			}
		}
		return true, true
	}
	return false, true
}

// subtractBox returns the fragments of box not covered by cut, as a list of
// disjoint boxes of the same layout, cutting dimension by dimension in box
// order. cut must overlap box (and so be as long).
func subtractBox(box, cut geom.Box) []geom.Box {
	var fragments []geom.Box
	remaining := slices.Clone(box)
	for d, cIv := range cut {
		rIv := remaining[d]
		// Left fragment: the part of remaining below the cut in this dim.
		if rIv.Min < cIv.Min {
			frag := slices.Clone(remaining)
			frag[d] = geom.Interval{Min: rIv.Min, Max: math.Min(rIv.Max, cIv.Min)}
			fragments = append(fragments, frag)
		}
		// Right fragment: the part above the cut in this dim.
		if rIv.Max > cIv.Max {
			frag := slices.Clone(remaining)
			frag[d] = geom.Interval{Min: math.Max(rIv.Min, cIv.Max), Max: rIv.Max}
			fragments = append(fragments, frag)
		}
		// Narrow remaining to the overlap in this dimension and continue.
		remaining[d] = rIv.Intersect(cIv)
	}
	return fragments
}
