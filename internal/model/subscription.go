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
	// dimension (a valid subscription has a filter), so the zero value marks
	// a struct-literal subscription whose box is computed per call.
	box geom.Box
	// slots is the compiled form of the filter set the event path reads
	// instead of the maps: one entry per filter, sorted by raw key — the
	// enumeration order of the complex-match search. Same rules as class and
	// box: filled eagerly by cacheDerived, immutable afterwards, and nil only
	// on a struct-literal subscription, which compiles per call.
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
	s.cacheDerived()
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
	s.cacheDerived()
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
	if s.Kind == KindAbstract {
		return SortedAttributes(s.AttrFilters)
	}
	set := map[AttributeType]bool{}
	for _, f := range s.SensorFilters {
		set[f.Attr] = true
	}
	out := make([]AttributeType, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// Sensors returns the explicitly named sensors of an identified
// subscription, sorted; it returns nil for abstract subscriptions.
func (s *Subscription) Sensors() []SensorID {
	if s.Kind != KindIdentified {
		return nil
	}
	return SortedSensors(s.SensorFilters)
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

// cacheDerived fills the caches derived from the filter sets and correlation
// distances (slots, class and box). Everything that builds a subscription or
// replaces its filters calls it before the subscription is published; Clone
// inherits the caches with the struct copy.
func (s *Subscription) cacheDerived() {
	s.slots = s.compileSlots()
	keys := filterKeys(s.Kind, s.slots)
	s.class = s.computeClass(keys)
	s.box = s.computeBox(keys, s.slots)
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

// filterKeys returns the prefixed completeness keys of the given slots, in
// slot (sorted) order: "d:<sensor>" per filtered sensor, or "a:<attr>" per
// filtered attribute. The signature key is made of them and they name the
// filter dimensions of the box.
func filterKeys(kind Kind, slots []filterSlot) []string {
	prefix, size := "a:", 0
	if kind == KindIdentified {
		prefix = "d:"
	}
	for _, sl := range slots {
		size += len(prefix) + len(sl.key)
	}
	// The prefixed keys are cut from one string: one allocation whatever
	// the number of filters, on a path every registration pays.
	keys := make([]string, len(slots))
	var all strings.Builder
	all.Grow(size)
	for i, sl := range slots {
		start := all.Len()
		all.WriteString(prefix)
		all.WriteString(sl.key)
		keys[i] = all.String()[start:]
	}
	return keys
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
	return s.computeClass(filterKeys(s.Kind, s.filterSlots()))
}

// computeClass derives the class from the subscription's current contents,
// given its filterKeys.
func (s *Subscription) computeClass(keys []string) Class {
	c := Class{Kind: s.Kind, DeltaT: s.DeltaT, Sig: s.computeSignature(keys)}
	if s.Kind == KindAbstract {
		c.DeltaL = s.DeltaL
	}
	return c
}

// computeSignature renders the signature key from the subscription's
// filterKeys.
func (s *Subscription) computeSignature(keys []string) string {
	filters := strings.Join(keys, "|")
	if s.Aggregate != nil {
		// Aggregate queries are never comparable with plain
		// subscriptions (or with aggregates of another function or
		// window), so the whole spec is part of the signature.
		a := s.Aggregate
		return fmt.Sprintf("ag:%s:w%d:q%g:k%d:x%t:%s", a.Func, a.WindowRounds, a.Quantile, a.K, a.Exact, filters)
	}
	if s.Kind == KindIdentified {
		return "id:" + filters
	}
	return "ab:" + filters
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

// locDimX and locDimY are the reserved dimension names used when translating
// an abstract subscription's region into extra box dimensions, as described
// in Section V-B ("the location meta-attribute ... can be treated as just
// another data attribute").
const (
	locDimX = "__loc_x"
	locDimY = "__loc_y"
)

// Box returns the hyper-rectangle representation of the subscription used by
// the subsumption checker: one dimension per filtered sensor (identified) or
// per filtered attribute plus the two spatial dimensions (abstract, when the
// region is bounded). The box is cached like the signature key and shared by
// every caller: Clone it before changing it.
func (s *Subscription) Box() geom.Box {
	if s.box.NumDims() > 0 {
		return s.box
	}
	slots := s.filterSlots()
	return s.computeBox(filterKeys(s.Kind, slots), slots)
}

// computeBox builds the box from the compiled slots and their filterKeys.
// The location dimensions sort before every filter dimension, so a box's
// trailing NumFilters dimensions are its filter ranges, in slot order.
func (s *Subscription) computeBox(keys []string, slots []filterSlot) geom.Box {
	if s.Kind == KindIdentified {
		b := geom.NewBoxSized(len(keys))
		for i, k := range keys {
			b = b.Set(k, slots[i].iv)
		}
		return b
	}
	bounded := !s.Region.IsWholePlane()
	n := len(keys)
	if bounded {
		n += 2
	}
	b := geom.NewBoxSized(n)
	if bounded {
		b = b.Set(locDimX, s.Region.X)
		b = b.Set(locDimY, s.Region.Y)
	}
	for i, k := range keys {
		b = b.Set(k, slots[i].iv)
	}
	return b
}
