// Package oracle computes the ground-truth result sets a lossless, fully
// informed matcher would deliver to each subscriber, given the complete
// event trace. It is used to measure the end-user event recall of the
// Filter-Split-Forward approach (Figure 12), which may miss events whose
// subscription fell into a falsely detected subsumption gap. On the four
// experiment scenarios (5 sensors per group) every approach delivers the
// oracle's result sets under quiescent replay, which TestPaperEvaluation
// pins at default scale. On those scenarios windowed replay is pinned
// equal to quiescent only for operator placement and Filter-Split-Forward
// on the small one, and for Filter-Split-Forward's final points across
// lags; elsewhere it moves event loads, because the event-window factor it needs grows with
// matching depth (ROADMAP, findings 2 and 4, direction 5(a)). At 10 sensors
// per group, where a subtree holds sensors of several of a query's
// attributes, the deterministic approaches miss cross-subtree combinations
// too (ROADMAP, direction 5(b)).
//
// The oracle uses exactly the same trigger-based matching semantics as the
// protocol nodes (Algorithm 5): events are inserted in timestamp order into
// one global window; each insertion is the trigger for complex events that
// include it; component events of a detected match are added to the
// subscription's expected result set once.
package oracle

import (
	"sensorcq/internal/model"
	"sensorcq/internal/stores"
)

// Expectation is the ground truth for one workload: the set of simple-event
// sequence numbers each subscription's user should receive.
type Expectation struct {
	// ExpectedSeqs maps each subscription to the set of simple events that
	// belong to at least one complex event delivered by a lossless matcher.
	ExpectedSeqs map[model.SubscriptionID]map[uint64]bool
	// ComplexMatches counts the complex-event notifications per
	// subscription.
	ComplexMatches map[model.SubscriptionID]int64
}

// TotalExpected returns the total number of (subscription, event) pairs the
// oracle expects to be delivered.
func (e *Expectation) TotalExpected() int {
	total := 0
	for _, set := range e.ExpectedSeqs {
		total += len(set)
	}
	return total
}

// Compute runs the lossless matcher over the trace for the given
// subscriptions. Events must be provided in (or close to) timestamp order;
// they are re-sorted defensively.
func Compute(subs []*model.Subscription, events []model.Event) *Expectation {
	ordered := make([]model.Event, len(events))
	copy(ordered, events)
	model.SortEventsByTime(ordered)

	var maxDeltaT model.Timestamp = 1
	byAttr := map[model.AttributeType][]*model.Subscription{}
	for _, s := range subs {
		if s == nil {
			continue
		}
		if s.DeltaT > maxDeltaT {
			maxDeltaT = s.DeltaT
		}
		for _, a := range s.Attributes() {
			byAttr[a] = append(byAttr[a], s)
		}
	}

	exp := &Expectation{
		ExpectedSeqs:   map[model.SubscriptionID]map[uint64]bool{},
		ComplexMatches: map[model.SubscriptionID]int64{},
	}
	window := stores.NewEventWindow(2 * maxDeltaT)
	for i := range ordered {
		ev := ordered[i]
		if !window.Insert(ev) {
			continue
		}
		window.Prune(ev.Time)
		for _, s := range byAttr[ev.Attr] {
			candidates := window.Around(ev.Time, s.DeltaT)
			// Enumerate every complex event the trigger completes, exactly
			// like the protocol nodes do: a single-pick match would
			// under-approximate the ground truth (components that only
			// appear in the non-picked combinations would never be
			// expected, inflating measured recall).
			s.ForEachComplexMatch(candidates, &ev, func(match model.ComplexEvent) bool {
				set := exp.ExpectedSeqs[s.ID]
				if set == nil {
					set = map[uint64]bool{}
					exp.ExpectedSeqs[s.ID] = set
				}
				for _, component := range match {
					set[component.Seq] = true
				}
				exp.ComplexMatches[s.ID]++
				return true
			})
		}
	}
	return exp
}

// Recall compares what a run actually delivered against the expectation and
// returns the overall event recall in [0, 1]: the fraction of expected
// (subscription, event) pairs that were delivered. Subscriptions with no
// expected events are ignored. When nothing is expected at all the recall is
// defined as 1.
func (e *Expectation) Recall(delivered func(model.SubscriptionID) map[uint64]bool) float64 {
	expected, got := 0, 0
	for subID, want := range e.ExpectedSeqs {
		if len(want) == 0 {
			continue
		}
		have := delivered(subID)
		for seq := range want {
			expected++
			if have[seq] {
				got++
			}
		}
	}
	if expected == 0 {
		return 1
	}
	return float64(got) / float64(expected)
}

// PerSubscriptionRecall returns the recall of each subscription separately
// (subscriptions with no expected events are omitted).
func (e *Expectation) PerSubscriptionRecall(delivered func(model.SubscriptionID) map[uint64]bool) map[model.SubscriptionID]float64 {
	out := map[model.SubscriptionID]float64{}
	for subID, want := range e.ExpectedSeqs {
		if len(want) == 0 {
			continue
		}
		have := delivered(subID)
		got := 0
		for seq := range want {
			if have[seq] {
				got++
			}
		}
		out[subID] = float64(got) / float64(len(want))
	}
	return out
}
