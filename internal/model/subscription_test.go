package model

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sensorcq/internal/agg"
	"sensorcq/internal/geom"
)

// Test helpers shared by the model tests.

func af(attr AttributeType, min, max float64) AttributeFilter {
	return AttributeFilter{Attr: attr, Range: geom.NewInterval(min, max)}
}

func sf(sensor SensorID, attr AttributeType, min, max float64) SensorFilter {
	return SensorFilter{Sensor: sensor, Attr: attr, Range: geom.NewInterval(min, max)}
}

func mustAbstract(t *testing.T, id SubscriptionID, region geom.Region, dt Timestamp, dl float64, filters ...AttributeFilter) *Subscription {
	t.Helper()
	s, err := NewAbstractSubscription(id, filters, region, dt, dl)
	if err != nil {
		t.Fatalf("NewAbstractSubscription(%s): %v", id, err)
	}
	return s
}

func mustIdentified(t *testing.T, id SubscriptionID, dt Timestamp, filters ...SensorFilter) *Subscription {
	t.Helper()
	s, err := NewIdentifiedSubscription(id, filters, dt)
	if err != nil {
		t.Fatalf("NewIdentifiedSubscription(%s): %v", id, err)
	}
	return s
}

func ev(seq uint64, sensor SensorID, attr AttributeType, value float64, ts Timestamp) Event {
	return Event{Seq: seq, Sensor: sensor, Attr: attr, Value: value, Time: ts}
}

func TestNewSubscriptionValidation(t *testing.T) {
	if _, err := NewIdentifiedSubscription("s", nil, 10); err == nil {
		t.Error("identified subscription without filters should fail")
	}
	if _, err := NewIdentifiedSubscription("s", []SensorFilter{sf("a", AmbientTemperature, 0, 1), sf("a", AmbientTemperature, 2, 3)}, 10); err == nil {
		t.Error("duplicate sensor filters should fail")
	}
	if _, err := NewAbstractSubscription("s", nil, geom.WholePlane(), 10, 1); err == nil {
		t.Error("abstract subscription without filters should fail")
	}
	if _, err := NewAbstractSubscription("s", []AttributeFilter{af(WindSpeed, 0, 1), af(WindSpeed, 2, 3)}, geom.WholePlane(), 10, 1); err == nil {
		t.Error("duplicate attribute filters should fail")
	}
	if _, err := NewAbstractSubscription("s", []AttributeFilter{af(WindSpeed, 0, 1)}, geom.WholePlane(), 0, 1); err == nil {
		t.Error("non-positive DeltaT should fail")
	}
	if _, err := NewAbstractSubscription("s", []AttributeFilter{af(WindSpeed, 0, 1)}, geom.WholePlane(), 10, 0); err == nil {
		t.Error("non-positive DeltaL should fail")
	}
	if _, err := NewAbstractSubscription("", []AttributeFilter{af(WindSpeed, 0, 1)}, geom.WholePlane(), 10, 1); err == nil {
		t.Error("empty ID should fail")
	}
	var nilSub *Subscription
	if err := nilSub.Validate(); err == nil {
		t.Error("nil subscription should fail validation")
	}
}

func TestSubscriptionAccessors(t *testing.T) {
	s := mustAbstract(t, "q1", geom.NewRegion(0, 0, 100, 100), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20), af(RelativeHumidity, 40, 90))
	if !s.IsUserSubscription() {
		t.Error("freshly built subscription is a user subscription")
	}
	if s.NumFilters() != 3 || s.IsSimple() {
		t.Error("filter count wrong")
	}
	attrs := s.Attributes()
	if len(attrs) != 3 || attrs[0] != AmbientTemperature {
		t.Errorf("Attributes() = %v", attrs)
	}
	if s.Sensors() != nil {
		t.Error("abstract subscription has no sensors")
	}
	if !strings.HasPrefix(s.SignatureKey(), "ab:") {
		t.Errorf("SignatureKey() = %q", s.SignatureKey())
	}

	id := mustIdentified(t, "q2", 30, sf("d1", AmbientTemperature, 0, 1), sf("d2", WindSpeed, 2, 3))
	if got := id.Sensors(); len(got) != 2 || got[0] != "d1" {
		t.Errorf("Sensors() = %v", got)
	}
	if got := id.Attributes(); len(got) != 2 {
		t.Errorf("Attributes() of identified = %v", got)
	}
	if !strings.HasPrefix(id.SignatureKey(), "id:") {
		t.Errorf("SignatureKey() = %q", id.SignatureKey())
	}
	if id.SignatureKey() == s.SignatureKey() {
		t.Error("different kinds must have different signature keys")
	}
}

func TestSubscriptionCloneIndependence(t *testing.T) {
	s := mustAbstract(t, "q1", geom.WholePlane(), 30, NoSpatialConstraint, af(WindSpeed, 0, 20))
	c := s.Clone()
	c.AttrFilters[WindSpeed] = af(WindSpeed, 100, 200)
	if s.AttrFilters[WindSpeed].Range.Max != 20 {
		t.Error("Clone must not alias filter maps")
	}
	id := mustIdentified(t, "q2", 30, sf("d1", WindSpeed, 0, 1))
	c2 := id.Clone()
	c2.SensorFilters["d1"] = sf("d1", WindSpeed, 5, 6)
	if id.SensorFilters["d1"].Range.Max != 1 {
		t.Error("Clone must not alias sensor filter maps")
	}
}

func TestSubscriptionStringStable(t *testing.T) {
	s := mustAbstract(t, "q1", geom.NewRegion(0, 0, 1, 1), 30, 5,
		af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5))
	a := s.String()
	b := s.String()
	if a != b {
		t.Error("String() should be deterministic")
	}
	if !strings.Contains(a, "ambient_temperature") || !strings.Contains(a, "wind_speed") {
		t.Errorf("String() = %q", a)
	}
	id := mustIdentified(t, "q2", 30, sf("d1", WindSpeed, 0, 1))
	if !strings.Contains(id.String(), "identified") {
		t.Errorf("String() = %q", id.String())
	}
}

func TestSubscriptionBox(t *testing.T) {
	s := mustAbstract(t, "q1", geom.NewRegion(0, 0, 10, 10), 30, NoSpatialConstraint,
		af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5))
	b := s.Box()
	if len(b) != 4 {
		t.Fatalf("bounded-region abstract subscription box should have 4 dims, got %d (%v)", len(b), b)
	}
	unbounded := mustAbstract(t, "q2", geom.WholePlane(), 30, NoSpatialConstraint, af(WindSpeed, 0, 20))
	if len(unbounded.Box()) != 1 {
		t.Error("whole-plane abstract subscription contributes no spatial dims")
	}
	id := mustIdentified(t, "q3", 30, sf("d1", WindSpeed, 0, 1), sf("d2", WindSpeed, 2, 3))
	if len(id.Box()) != 2 {
		t.Error("identified subscription box has one dim per sensor")
	}
	// An identified subscription's region never becomes box dimensions.
	literal := &Subscription{ID: "q4", Kind: KindIdentified, SensorFilters: id.SensorFilters,
		Region: geom.NewRegion(0, 0, 10, 10), DeltaT: 30}
	if got := literal.Box(); !slices.Equal(got, id.Box()) {
		t.Errorf("identified box with a bounded Region = %v, want %v", got, id.Box())
	}
}

// The class and the box are cached wherever a subscription is built or its
// filters replaced; each cache must equal what the current contents give, and
// a struct literal — which has neither — must answer the same.
func TestSubscriptionDerivedCaches(t *testing.T) {
	ab := mustAbstract(t, "q1", geom.NewRegion(0, 0, 10, 10), 30, 5,
		af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5), af(RelativeHumidity, 40, 90))
	id := mustIdentified(t, "q2", 30, sf("d2", WindSpeed, 2, 3), sf("d1", WindSpeed, 0, 1), sf("d3", WindSpeed, 4, 5))
	agg, err := NewAggregateSubscription("q3", af(WindSpeed, 0, 20), geom.WholePlane(), AggregateSpec{Func: agg.Mean, WindowRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	built := map[string]*Subscription{
		"abstract":             ab,
		"identified":           id,
		"aggregate":            agg,
		"clone":                ab.Clone(),
		"attribute projection": ab.ProjectAttributes([]AttributeType{WindSpeed, RelativeHumidity}),
		"sensor projection":    id.ProjectSensors([]SensorID{"d3", "d1"}),
		"binary join":          ab.SplitBinaryJoins()[1],
	}
	for name, s := range built {
		if s.class.Sig == "" || len(s.box) == 0 || len(s.slots) != s.NumFilters() {
			t.Errorf("%s: caches not filled", name)
			continue
		}
		literal := &Subscription{
			ID: s.ID, Kind: s.Kind, SensorFilters: s.SensorFilters, AttrFilters: s.AttrFilters,
			Region: s.Region, DeltaT: s.DeltaT, DeltaL: s.DeltaL, Aggregate: s.Aggregate,
		}
		if literal.Class() != s.Class() || literal.SignatureKey() != s.SignatureKey() {
			t.Errorf("%s: cached class %q, contents give %q", name, s.SignatureKey(), literal.SignatureKey())
		}
		if got, want := s.Box(), literal.Box(); !slices.Equal(got, want) {
			t.Errorf("%s: cached box %v, contents give %v", name, got, want)
		}
		if !s.CoveredBy(literal) || !literal.CoveredBy(s) {
			t.Errorf("%s: a subscription and its struct-literal twin must cover each other", name)
		}
	}
	// Region X and Y first when bounded, then one interval per filter in key
	// order: the set filter samples the dimensions in this order.
	iv := geom.NewInterval
	if got, want := ab.Box(), (geom.Box{iv(0, 10), iv(0, 10), iv(-5, 5), iv(40, 90), iv(0, 20)}); !slices.Equal(got, want) {
		t.Errorf("abstract box = %v, want %v (x, y, ambient_temperature, relative_humidity, wind_speed)", got, want)
	}
	if got, want := id.Box(), (geom.Box{iv(0, 1), iv(2, 3), iv(4, 5)}); !slices.Equal(got, want) {
		t.Errorf("identified box = %v, want %v (d1, d2, d3)", got, want)
	}
}

func TestSubscriptionClass(t *testing.T) {
	base := mustAbstract(t, "q1", geom.WholePlane(), 30, 5, af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5))
	same := mustAbstract(t, "q2", geom.NewRegion(0, 0, 1, 1), 30, 5, af(AmbientTemperature, 0, 1), af(WindSpeed, 5, 6))
	if base.Class() != same.Class() {
		t.Error("ranges, region and ID are not part of the class")
	}
	for name, other := range map[string]*Subscription{
		"other attributes": mustAbstract(t, "q3", geom.WholePlane(), 30, 5, af(WindSpeed, 0, 20)),
		"other δt":         mustAbstract(t, "q4", geom.WholePlane(), 60, 5, af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5)),
		"other δl":         mustAbstract(t, "q5", geom.WholePlane(), 30, 6, af(WindSpeed, 0, 20), af(AmbientTemperature, -5, 5)),
		"other kind":       mustIdentified(t, "q6", 30, sf("wind_speed", WindSpeed, 0, 1), sf("ambient_temperature", AmbientTemperature, 0, 1)),
	} {
		if base.Class() == other.Class() {
			t.Errorf("%s: classes must differ", name)
		}
		if base.CoveredBy(other) || other.CoveredBy(base) {
			t.Errorf("%s: subscriptions of different classes never cover each other", name)
		}
	}
	// δl means nothing to identified subscriptions.
	a := mustIdentified(t, "q7", 30, sf("d1", WindSpeed, 0, 1))
	b := a.Clone()
	b.DeltaL = 7
	b.cacheDerived(b.compileSlots())
	if a.Class() != b.Class() {
		t.Error("δl must not split identified subscriptions into classes")
	}
	if _, err := NewAbstractSubscription("q8", []AttributeFilter{af(WindSpeed, 0, 1)}, geom.WholePlane(), 30, math.NaN()); err == nil {
		t.Error("a NaN δl is comparable with nothing, itself included, and must be rejected")
	}
}

func TestKindString(t *testing.T) {
	if KindIdentified.String() != "identified" || KindAbstract.String() != "abstract" {
		t.Error("Kind.String() wrong")
	}
	if Kind(42).String() != "kind(42)" {
		t.Error("unknown kind rendering wrong")
	}
}

func TestSensorAdvertisement(t *testing.T) {
	s := Sensor{ID: "d7", Attr: WindSpeed, Location: geom.Point2D{X: 1, Y: 2}}
	adv := s.Advertisement()
	if adv.Sensor != "d7" || adv.Attr != WindSpeed || adv.Location != s.Location {
		t.Errorf("Advertisement() = %v", adv)
	}
	if !strings.Contains(s.String(), "d7") || !strings.Contains(adv.String(), "wind_speed") {
		t.Error("String() renderings wrong")
	}
}
