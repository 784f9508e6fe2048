package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"sensorcq/internal/geom"
)

// Kind discriminates between the two subscription flavours of Section IV-A.
type Kind int

const (
	// KindIdentified is a subscription over explicitly named sensors
	// S_id = (F_D, δt).
	KindIdentified Kind = iota
	// KindAbstract is a subscription over attribute types bound to a
	// spatial region S_ab = (F_{A,L}, δt, δl).
	KindAbstract
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindIdentified:
		return "identified"
	case KindAbstract:
		return "abstract"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NoSpatialConstraint is the DeltaL value meaning "event correlation is
// independent of spatial proximity" (δl = ∞ in the paper).
var NoSpatialConstraint = math.Inf(1)

// Subscription is a user subscription or a correlation operator derived from
// one by the split phase. A subscription carries either SensorFilters
// (identified) or AttrFilters (abstract), never both.
//
// The split-and-forward phase produces operators that are projections of a
// user subscription onto a subset of its filters; such operators keep the
// identity of the user subscription they descend from in Root, and the
// identity of the operator they were directly split from in Parent.
type Subscription struct {
	// ID uniquely identifies this subscription or operator.
	ID SubscriptionID
	// Root is the original user subscription this operator descends from.
	// For a user subscription, Root == ID.
	Root SubscriptionID
	// Parent is the operator this one was split from ("" for user
	// subscriptions).
	Parent SubscriptionID

	Kind Kind

	// SensorFilters holds the complex filter with identification F_D for
	// identified subscriptions, keyed by sensor.
	SensorFilters map[SensorID]SensorFilter
	// AttrFilters holds the abstract filter F_{A,L} for abstract
	// subscriptions, keyed by attribute type.
	AttrFilters map[AttributeType]AttributeFilter
	// Region is the spatial constraint L of an abstract subscription.
	Region geom.Region

	// DeltaT is the temporal correlation distance δt.
	DeltaT Timestamp
	// DeltaL is the spatial correlation distance δl (abstract only);
	// use NoSpatialConstraint when correlation is independent of distance.
	DeltaL float64

	// SubscriberNode optionally records, as an opaque string, the processing
	// node hosting the subscribing user. The distributed protocols never use
	// it (they route results along reverse subscription paths); the
	// centralized baseline — which assumes global knowledge — sets it when a
	// subscription is registered and uses it to route result sets back to
	// the owner.
	SubscriberNode string

	// Aggregate, when non-nil, turns the subscription into a windowed
	// GROUP-BY-time continuous aggregate query (see AggregateSpec):
	// nodes accumulate mergeable partial aggregates per window instead of
	// forwarding matching readings. Aggregate subscriptions bypass the
	// subsumption checker — their result is a per-window scalar, so
	// covering them with a broader plain subscription would change their
	// semantics, not just their routing.
	Aggregate *AggregateSpec

	// class caches Class's result (which carries SignatureKey's rendering).
	// Subscriptions are immutable once published, and every coverage decision
	// compares classes on each candidate-set pairing, so the constructors,
	// Clone and the split projections fill it eagerly. A zero value
	// (struct-literal construction in tests) falls back to computing the
	// class per call *without* caching it — subscriptions are shared across
	// nodes and engine goroutines, so a lazy write here would be a data race.
	class Class
	// box caches Box's result under the same rules as class: filled eagerly
	// wherever class is, never written lazily. A filled box has at least one
	// dimension (a valid subscription has a filter), so an empty one marks a
	// struct-literal subscription whose box is computed per call.
	box geom.Box
	// slots is the compiled form of the filter set the event path reads
	// instead of the maps: one entry per filter, sorted by raw key — the
	// enumeration order of the complex-match search. They are the one
	// statement of the subscription's dimensions: the signature names them
	// and the box lays its filter intervals out in their order. Same rules as
	// class and box: filled eagerly by cacheDerived, immutable afterwards, and
	// nil only on a struct-literal subscription, which compiles per call.
	slots []filterSlot
}

// filterSlot is one compiled simple filter: the raw completeness key (the
// sensor of an identified subscription's filter, the attribute type of an
// abstract one's) and the value range events under that key must satisfy.
type filterSlot struct {
	key string
	iv  geom.Interval
}

// NewIdentifiedSubscription builds a user subscription over explicitly named
// sensors. The filters slice must be non-empty and name distinct sensors.
func NewIdentifiedSubscription(id SubscriptionID, filters []SensorFilter, deltaT Timestamp) (*Subscription, error) {
	if len(filters) == 0 {
		return nil, errors.New("model: identified subscription needs at least one sensor filter")
	}
	m := make(map[SensorID]SensorFilter, len(filters))
	for _, f := range filters {
		if _, dup := m[f.Sensor]; dup {
			return nil, fmt.Errorf("model: duplicate filter for sensor %s", f.Sensor)
		}
		m[f.Sensor] = f
	}
	s := &Subscription{
		ID:            id,
		Root:          id,
		Kind:          KindIdentified,
		SensorFilters: m,
		Region:        geom.WholePlane(),
		DeltaT:        deltaT,
		DeltaL:        NoSpatialConstraint,
	}
	s.cacheDerived(s.compileSlots())
	return s, s.Validate()
}

// NewAbstractSubscription builds a user subscription over attribute types
// constrained to a region.
func NewAbstractSubscription(id SubscriptionID, filters []AttributeFilter, region geom.Region, deltaT Timestamp, deltaL float64) (*Subscription, error) {
	if len(filters) == 0 {
		return nil, errors.New("model: abstract subscription needs at least one attribute filter")
	}
	m := make(map[AttributeType]AttributeFilter, len(filters))
	for _, f := range filters {
		if _, dup := m[f.Attr]; dup {
			return nil, fmt.Errorf("model: duplicate filter for attribute %s", f.Attr)
		}
		m[f.Attr] = f
	}
	s := &Subscription{
		ID:          id,
		Root:        id,
		Kind:        KindAbstract,
		AttrFilters: m,
		Region:      region,
		DeltaT:      deltaT,
		DeltaL:      deltaL,
	}
	s.cacheDerived(s.compileSlots())
	return s, s.Validate()
}

// Validate checks structural invariants and returns a descriptive error when
// one is violated.
func (s *Subscription) Validate() error {
	if s == nil {
		return errors.New("model: nil subscription")
	}
	if s.ID == "" {
		return errors.New("model: subscription needs an ID")
	}
	if s.DeltaT <= 0 {
		return fmt.Errorf("model: subscription %s has non-positive DeltaT %d", s.ID, s.DeltaT)
	}
	switch s.Kind {
	case KindIdentified:
		if len(s.SensorFilters) == 0 {
			return fmt.Errorf("model: identified subscription %s has no sensor filters", s.ID)
		}
		if len(s.AttrFilters) != 0 {
			return fmt.Errorf("model: identified subscription %s must not carry attribute filters", s.ID)
		}
	case KindAbstract:
		if len(s.AttrFilters) == 0 {
			return fmt.Errorf("model: abstract subscription %s has no attribute filters", s.ID)
		}
		if len(s.SensorFilters) != 0 {
			return fmt.Errorf("model: abstract subscription %s must not carry sensor filters", s.ID)
		}
		if s.Region.Empty() {
			return fmt.Errorf("model: abstract subscription %s has an empty region", s.ID)
		}
		if !(s.DeltaL > 0) { // also rejects NaN, which is comparable with nothing
			return fmt.Errorf("model: abstract subscription %s has non-positive DeltaL", s.ID)
		}
	default:
		return fmt.Errorf("model: subscription %s has unknown kind %d", s.ID, s.Kind)
	}
	if s.Aggregate != nil {
		// The shape NewAggregateSubscription builds: the aggregate path folds
		// the readings of one attribute filter per window.
		if s.Kind != KindAbstract || len(s.AttrFilters) != 1 {
			return fmt.Errorf("model: aggregate subscription %s needs exactly one attribute filter", s.ID)
		}
		if err := s.Aggregate.Validate(); err != nil {
			return fmt.Errorf("model: aggregate subscription %s: %w", s.ID, err)
		}
	}
	return nil
}

// IsUserSubscription reports whether this is an original user subscription
// (as opposed to an operator produced by splitting).
func (s *Subscription) IsUserSubscription() bool { return s.Parent == "" && s.Root == s.ID }

// NumFilters returns the number of simple filters in the subscription.
func (s *Subscription) NumFilters() int {
	if s.Kind == KindIdentified {
		return len(s.SensorFilters)
	}
	return len(s.AttrFilters)
}

// IsSimple reports whether the subscription is a simple operator: it
// constrains a single attribute (abstract) or a single sensor (identified)
// and therefore needs no further correlation.
func (s *Subscription) IsSimple() bool { return s.NumFilters() == 1 }

// Attributes returns the attribute types the subscription involves, sorted.
// For identified subscriptions this is derived from the sensor filters.
func (s *Subscription) Attributes() []AttributeType {
	slots := s.filterSlots()
	out := make([]AttributeType, len(slots))
	for i, sl := range slots {
		if s.Kind == KindAbstract {
			out[i] = AttributeType(sl.key)
		} else {
			out[i] = s.SensorFilters[SensorID(sl.key)].Attr
		}
	}
	if s.Kind == KindIdentified {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// Sensors returns the explicitly named sensors of an identified
// subscription, sorted; it returns nil for abstract subscriptions.
func (s *Subscription) Sensors() []SensorID {
	if s.Kind != KindIdentified {
		return nil
	}
	slots := s.filterSlots()
	out := make([]SensorID, len(slots))
	for i, sl := range slots {
		out[i] = SensorID(sl.key)
	}
	return out
}

// SignatureKey returns a canonical key identifying the set of "attributes"
// the subscription is defined over, in the sense of the set-filtering
// algorithm: the sensor set for identified subscriptions, the attribute-type
// set for abstract ones. Two subscriptions are comparable by set filtering
// (and by pairwise covering) only when their signature keys are equal and
// their kinds match.
// The key is cached at construction (constructors, Clone, projections) as
// part of the class; subscriptions built as struct literals compute it on
// every call instead of caching, because a lazy write to a shared
// subscription would race.
func (s *Subscription) SignatureKey() string { return s.Class().Sig }

// cacheDerived stores the compiled slots of the filter sets and the caches
// derived from them and the correlation distances (class and box).
// Everything that builds a subscription or replaces its filters calls it
// before the subscription is published; Clone inherits the caches with the
// struct copy.
func (s *Subscription) cacheDerived(slots []filterSlot) {
	s.slots = slots
	s.class = s.computeClass(slots)
	s.box = s.computeBox(slots)
}

// compileSlots builds the key-sorted filter slots from the filter maps.
func (s *Subscription) compileSlots() []filterSlot {
	slots := make([]filterSlot, 0, s.NumFilters())
	if s.Kind == KindIdentified {
		for d, f := range s.SensorFilters {
			slots = append(slots, filterSlot{key: string(d), iv: f.Range})
		}
	} else {
		for a, f := range s.AttrFilters {
			slots = append(slots, filterSlot{key: string(a), iv: f.Range})
		}
	}
	slices.SortFunc(slots, func(a, b filterSlot) int { return strings.Compare(a.key, b.key) })
	return slots
}

// filterSlots returns the compiled slots: the cached ones, or — for a
// struct-literal subscription — freshly compiled ones that are not stored
// (see the class field for why nothing is written lazily).
func (s *Subscription) filterSlots() []filterSlot {
	if s.slots != nil {
		return s.slots
	}
	return s.compileSlots()
}

// Class identifies a comparability class: two subscriptions can take part in
// one coverage decision (pairwise covering or set filtering, Section V-B)
// only when their classes are equal — same kind, same signature key, same
// temporal correlation distance and, for abstract subscriptions, same
// spatial correlation distance. It is comparable with == and usable as a map
// key.
type Class struct {
	Kind   Kind
	DeltaT Timestamp
	// DeltaL is zero for identified subscriptions, which ignore it.
	DeltaL float64
	Sig    string
}

// Class returns the subscription's comparability class.
func (s *Subscription) Class() Class {
	if s.class.Sig != "" {
		return s.class
	}
	return s.computeClass(s.filterSlots())
}

// computeClass derives the class from the subscription's current contents,
// given its compiled slots.
func (s *Subscription) computeClass(slots []filterSlot) Class {
	c := Class{Kind: s.Kind, DeltaT: s.DeltaT, Sig: s.computeSignature(slots)}
	if s.Kind == KindAbstract {
		c.DeltaL = s.DeltaL
	}
	return c
}

// computeSignature renders the signature key from the subscription's
// compiled slots: a kind header, then the slots' keys in slot order, each
// prefixed "d:" (a filtered sensor) or "a:" (a filtered attribute type) and
// separated by "|".
func (s *Subscription) computeSignature(slots []filterSlot) string {
	prefix := "a:"
	if s.Kind == KindIdentified {
		prefix = "d:"
	}
	var filters strings.Builder
	for i, sl := range slots {
		if i > 0 {
			filters.WriteByte('|')
		}
		filters.WriteString(prefix)
		filters.WriteString(sl.key)
	}
	if s.Aggregate != nil {
		// Aggregate queries are never comparable with plain
		// subscriptions (or with aggregates of another function or
		// window), so the whole spec is part of the signature.
		a := s.Aggregate
		return fmt.Sprintf("ag:%s:w%d:q%g:k%d:x%t:%s", a.Func, a.WindowRounds, a.Quantile, a.K, a.Exact, filters.String())
	}
	if s.Kind == KindIdentified {
		return "id:" + filters.String()
	}
	return "ab:" + filters.String()
}

// Clone returns a deep copy of the subscription.
func (s *Subscription) Clone() *Subscription {
	out := *s
	if s.SensorFilters != nil {
		out.SensorFilters = make(map[SensorID]SensorFilter, len(s.SensorFilters))
		for k, v := range s.SensorFilters {
			out.SensorFilters[k] = v
		}
	}
	if s.AttrFilters != nil {
		out.AttrFilters = make(map[AttributeType]AttributeFilter, len(s.AttrFilters))
		for k, v := range s.AttrFilters {
			out.AttrFilters[k] = v
		}
	}
	if s.Aggregate != nil {
		spec := *s.Aggregate
		out.Aggregate = &spec
	}
	return &out
}

// String implements fmt.Stringer. The rendering is stable (sorted filters) so
// it can be used in golden tests.
func (s *Subscription) String() string {
	var parts []string
	if s.Kind == KindIdentified {
		for _, d := range s.Sensors() {
			parts = append(parts, s.SensorFilters[d].String())
		}
		return fmt.Sprintf("sub(%s identified {%s} δt=%d)", s.ID, strings.Join(parts, ", "), s.DeltaT)
	}
	for _, a := range s.Attributes() {
		parts = append(parts, s.AttrFilters[a].String())
	}
	return fmt.Sprintf("sub(%s abstract {%s} %s δt=%d δl=%g)", s.ID, strings.Join(parts, ", "), s.Region, s.DeltaT, s.DeltaL)
}

// Box returns the hyper-rectangle representation of the subscription used by
// the subsumption checker (Section V-B): for an abstract subscription whose
// region is bounded, the region's X and Y intervals first, then one interval
// per compiled slot, in slot order. An identified subscription's box has no
// location dimensions, whatever its Region holds. Two subscriptions of one
// class therefore lay their boxes out alike, except that a bounded abstract
// box is two dimensions longer than a whole-plane one. The box is cached like
// the signature key and shared by every caller: it must not be changed.
func (s *Subscription) Box() geom.Box {
	if len(s.box) > 0 {
		return s.box
	}
	return s.computeBox(s.filterSlots())
}

// computeBox builds the box from the compiled slots.
func (s *Subscription) computeBox(slots []filterSlot) geom.Box {
	bounded := s.Kind == KindAbstract && !s.Region.IsWholePlane()
	n := len(slots)
	if bounded {
		n += 2
	}
	b := make(geom.Box, 0, n)
	if bounded {
		b = append(b, s.Region.X, s.Region.Y)
	}
	for _, sl := range slots {
		b = append(b, sl.iv)
	}
	return b
}
