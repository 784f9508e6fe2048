package model

import (
	"fmt"

	"sensorcq/internal/agg"
	"sensorcq/internal/geom"
)

// AggregateSpec turns a subscription into a windowed GROUP-BY-time
// continuous aggregate query: instead of delivering every matching
// complex event, each node of the dissemination tree folds its own
// matching readings into one mergeable partial aggregate per tumbling
// window of WindowRounds measurement rounds, merges its children's
// partials in, and forwards a single partial upstream when the network
// watermark closes the window — so upstream traffic scales with the
// tree's fan-in instead of the reading count.
type AggregateSpec struct {
	// Func is the aggregate function applied per window.
	Func agg.Func
	// WindowRounds is the tumbling GROUP-BY-time window in measurement
	// rounds: window g covers rounds [g·W+1, (g+1)·W].
	WindowRounds int
	// Quantile is the rank fraction φ in (0,1); Func == Quantile only.
	Quantile float64
	// Lo, Hi bound the sketch's value domain; Func == Quantile only.
	Lo, Hi float64
	// Bits is log2 of the sketch's bucket count σ; Func == Quantile only.
	Bits uint
	// K is the q-digest compression parameter (rank error ε = Bits/K);
	// Func == Quantile only.
	K int
	// Exact selects the ship-every-reading baseline: matching readings
	// are relayed hop by hop to the subscriber's node and aggregated
	// exactly there. It is the error-free, traffic-heavy comparison
	// point of the error-vs-traffic experiment.
	Exact bool
}

// Validate checks the spec.
func (a *AggregateSpec) Validate() error {
	if a == nil {
		return fmt.Errorf("model: nil aggregate spec")
	}
	if a.WindowRounds <= 0 {
		return fmt.Errorf("model: aggregate window must be positive rounds, got %d", a.WindowRounds)
	}
	return a.Config().Validate()
}

// Config maps the spec onto the aggregate-state configuration.
func (a *AggregateSpec) Config() agg.Config {
	return agg.Config{
		Func:     a.Func,
		Quantile: a.Quantile,
		Lo:       a.Lo,
		Hi:       a.Hi,
		Bits:     a.Bits,
		K:        a.K,
		Exact:    a.Exact,
	}
}

// Epsilon returns the rank-error bound of the spec (0 for exact
// aggregates).
func (a *AggregateSpec) Epsilon() float64 { return a.Config().Epsilon() }

// WindowOf returns the window index holding a measurement round (rounds
// are 1-based).
func (a *AggregateSpec) WindowOf(round int) int {
	if round <= 0 {
		return 0
	}
	return (round - 1) / a.WindowRounds
}

// WindowBounds returns the first and last round of a window.
func (a *AggregateSpec) WindowBounds(window int) (start, end int) {
	return window*a.WindowRounds + 1, (window + 1) * a.WindowRounds
}

// MatchesReading reports whether one sensor reading falls inside an
// aggregate subscription's filter: attribute type, value range and
// region. Aggregate queries bypass the complex-event matchers, so this is
// their entire matching semantics.
func (s *Subscription) MatchesReading(ev Event) bool {
	return s.Kind == KindAbstract && s.matchSlot(s.filterSlots(), &ev) >= 0
}

// NewAggregateSubscription builds a continuous aggregate query: one
// attribute filter bound to a region, aggregated per tumbling window as
// the spec describes. It registers and retracts through the same
// advertisement and forwarding paths as any abstract subscription.
func NewAggregateSubscription(id SubscriptionID, filter AttributeFilter, region geom.Region, spec AggregateSpec) (*Subscription, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The temporal/spatial correlation distances are complex-event
	// machinery; aggregate queries group by window instead, so they take
	// the neutral values (any positive δt, unconstrained δl).
	s, err := NewAbstractSubscription(id, []AttributeFilter{filter}, region, 1, NoSpatialConstraint)
	if err != nil {
		return nil, err
	}
	specCopy := spec
	s.Aggregate = &specCopy
	s.cacheDerived(s.slots)
	return s, nil
}
