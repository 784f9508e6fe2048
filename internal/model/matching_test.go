package model

import (
	"testing"

	"sensorcq/internal/geom"
)

func TestMatchesEventAbstract(t *testing.T) {
	s := mustAbstract(t, "q1", geom.NewRegion(0, 0, 100, 100), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20))

	inRegion := geom.Point2D{X: 50, Y: 50}
	outRegion := geom.Point2D{X: 500, Y: 50}

	e := Event{Sensor: "d1", Attr: AmbientTemperature, Value: 0, Location: inRegion}
	if !s.MatchesEvent(e) {
		t.Error("event inside range and region should match")
	}
	e.Value = 10
	if s.MatchesEvent(e) {
		t.Error("event outside the value range should not match")
	}
	e.Value = 0
	e.Location = outRegion
	if s.MatchesEvent(e) {
		t.Error("event outside the region should not match")
	}
	e.Location = inRegion
	e.Attr = RelativeHumidity
	if s.MatchesEvent(e) {
		t.Error("event of an unfiltered attribute should not match")
	}
}

func TestMatchesEventIdentified(t *testing.T) {
	s := mustIdentified(t, "q1", 30, sf("d1", AmbientTemperature, 50, 80), sf("d2", RelativeHumidity, 10, 30))
	if !s.MatchesEvent(ev(1, "d1", AmbientTemperature, 60, 0)) {
		t.Error("matching sensor and value should match")
	}
	if s.MatchesEvent(ev(2, "d1", AmbientTemperature, 90, 0)) {
		t.Error("value outside range should not match")
	}
	if s.MatchesEvent(ev(3, "d3", AmbientTemperature, 60, 0)) {
		t.Error("unnamed sensor should not match")
	}
}

func TestMatchesComplexConditions(t *testing.T) {
	s := mustIdentified(t, "q1", 10, sf("a", AmbientTemperature, 50, 80), sf("b", RelativeHumidity, 10, 30))

	ok := ComplexEvent{ev(1, "a", AmbientTemperature, 60, 100), ev(2, "b", RelativeHumidity, 20, 105)}
	if !s.MatchesComplex(ok) {
		t.Error("valid complex event should match")
	}
	// Completeness: missing one sensor.
	if s.MatchesComplex(ComplexEvent{ev(1, "a", AmbientTemperature, 60, 100)}) {
		t.Error("incomplete complex event should not match")
	}
	// Duplicate sensor instead of the other one.
	if s.MatchesComplex(ComplexEvent{ev(1, "a", AmbientTemperature, 60, 100), ev(3, "a", AmbientTemperature, 61, 101)}) {
		t.Error("two events for the same sensor should not satisfy completeness")
	}
	// Time correlation violated: gap equals DeltaT (strict inequality required).
	late := ComplexEvent{ev(1, "a", AmbientTemperature, 60, 100), ev(2, "b", RelativeHumidity, 20, 110)}
	if s.MatchesComplex(late) {
		t.Error("time gap of exactly DeltaT should not match (strict)")
	}
	// One value out of range.
	if s.MatchesComplex(ComplexEvent{ev(1, "a", AmbientTemperature, 90, 100), ev(2, "b", RelativeHumidity, 20, 101)}) {
		t.Error("component value outside range should not match")
	}
}

func TestMatchesComplexSpatialConstraint(t *testing.T) {
	region := geom.NewRegion(0, 0, 1000, 1000)
	s := mustAbstract(t, "q1", region, 10, 50,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20))

	near := ComplexEvent{
		Event{Seq: 1, Sensor: "x", Attr: AmbientTemperature, Value: 1, Time: 5, Location: geom.Point2D{X: 10, Y: 10}},
		Event{Seq: 2, Sensor: "y", Attr: WindSpeed, Value: 5, Time: 6, Location: geom.Point2D{X: 20, Y: 10}},
	}
	if !s.MatchesComplex(near) {
		t.Error("spatially close complex event should match")
	}
	far := ComplexEvent{
		Event{Seq: 1, Sensor: "x", Attr: AmbientTemperature, Value: 1, Time: 5, Location: geom.Point2D{X: 10, Y: 10}},
		Event{Seq: 2, Sensor: "y", Attr: WindSpeed, Value: 5, Time: 6, Location: geom.Point2D{X: 500, Y: 10}},
	}
	if s.MatchesComplex(far) {
		t.Error("complex event exceeding DeltaL should not match")
	}
}

// firstMatch returns the first complex event ForEachComplexMatch enumerates,
// or nil when there is none.
func firstMatch(s *Subscription, window []Event, mustInclude *Event) ComplexEvent {
	var first ComplexEvent
	s.ForEachComplexMatch(window, mustInclude, func(match ComplexEvent) bool {
		first = match
		return false
	})
	return first
}

func TestFindComplexMatch(t *testing.T) {
	s := mustIdentified(t, "q1", 10,
		sf("a", AmbientTemperature, 50, 80),
		sf("b", RelativeHumidity, 10, 30),
		sf("c", WindSpeed, 0, 10))

	window := []Event{
		ev(1, "a", AmbientTemperature, 60, 100),
		ev(2, "b", RelativeHumidity, 20, 103),
		ev(3, "c", WindSpeed, 5, 105),
		ev(4, "a", AmbientTemperature, 95, 104), // out of range
	}
	match := firstMatch(s, window, nil)
	if match == nil {
		t.Fatal("expected a complex match")
	}
	if len(match) != 3 || !s.MatchesComplex(match) {
		t.Fatalf("returned match is invalid: %v", match)
	}

	// mustInclude constrains the selection.
	trigger := ev(3, "c", WindSpeed, 5, 105)
	match = firstMatch(s, window, &trigger)
	if match == nil {
		t.Fatal("expected a match including the trigger")
	}
	found := false
	for _, e := range match {
		if e.Seq == 3 {
			found = true
		}
	}
	if !found {
		t.Error("trigger event not part of the returned match")
	}

	// A trigger that does not match the subscription yields no match.
	bad := ev(9, "c", WindSpeed, 99, 105)
	if firstMatch(s, window, &bad) != nil {
		t.Error("non-matching trigger should not produce a match")
	}

	// Remove sensor b candidates: completeness fails.
	window2 := []Event{ev(1, "a", AmbientTemperature, 60, 100), ev(3, "c", WindSpeed, 5, 105)}
	if firstMatch(s, window2, nil) != nil {
		t.Error("incomplete window should not produce a match")
	}
}

func TestFindComplexMatchBacktracksOverTimeWindows(t *testing.T) {
	// Two candidates for sensor a: one too old to correlate with the rest,
	// one recent. The search must not give up after trying the first.
	s := mustIdentified(t, "q1", 10,
		sf("a", AmbientTemperature, 0, 100),
		sf("b", RelativeHumidity, 0, 100))
	window := []Event{
		ev(1, "a", AmbientTemperature, 10, 0),  // too old
		ev(2, "a", AmbientTemperature, 20, 95), // fits
		ev(3, "b", RelativeHumidity, 30, 100),
	}
	match := firstMatch(s, window, nil)
	if match == nil {
		t.Fatal("expected a match using the recent candidate")
	}
	for _, e := range match {
		if e.Seq == 1 {
			t.Error("match must not use the stale candidate")
		}
	}
}

func TestCoveredByPairwise(t *testing.T) {
	wide := mustAbstract(t, "wide", geom.NewRegion(0, 0, 100, 100), 30, NoSpatialConstraint,
		af(AmbientTemperature, -10, 10), af(WindSpeed, 0, 30))
	narrow := mustAbstract(t, "narrow", geom.NewRegion(10, 10, 50, 50), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 5, 10))
	other := mustAbstract(t, "other", geom.NewRegion(0, 0, 100, 100), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(RelativeHumidity, 0, 100))

	if !narrow.CoveredBy(wide) {
		t.Error("narrow should be covered by wide")
	}
	if wide.CoveredBy(narrow) {
		t.Error("wide should not be covered by narrow")
	}
	if narrow.CoveredBy(other) {
		t.Error("different attribute sets are never pairwise covered")
	}
	if !wide.CoveredBy(wide) {
		t.Error("a subscription covers itself")
	}

	// Identified flavour.
	w := mustIdentified(t, "w", 30, sf("a", AmbientTemperature, 0, 100), sf("b", WindSpeed, 0, 100))
	n := mustIdentified(t, "n", 30, sf("a", AmbientTemperature, 10, 20), sf("b", WindSpeed, 5, 10))
	if !n.CoveredBy(w) || w.CoveredBy(n) {
		t.Error("identified coverage wrong")
	}
	// Differing DeltaT breaks coverage.
	n2 := mustIdentified(t, "n2", 60, sf("a", AmbientTemperature, 10, 20), sf("b", WindSpeed, 5, 10))
	if n2.CoveredBy(w) {
		t.Error("different DeltaT must not be covered")
	}
	var nilSub *Subscription
	if nilSub.CoveredBy(w) || w.CoveredBy(nil) {
		t.Error("nil handling wrong")
	}
}

func TestComplexEventHelpers(t *testing.T) {
	c := ComplexEvent{
		Event{Seq: 3, Time: 10, Location: geom.Point2D{X: 0, Y: 0}},
		Event{Seq: 1, Time: 25, Location: geom.Point2D{X: 3, Y: 4}},
	}
	if c.MaxTime() != 25 || c.MinTime() != 10 || c.TimeSpan() != 15 {
		t.Error("time helpers wrong")
	}
	if c.LocationSpan() != 5 {
		t.Errorf("LocationSpan = %g, want 5", c.LocationSpan())
	}
	if seqs := c.Seqs(); len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("Seqs() = %v", seqs)
	}
	var empty ComplexEvent
	if empty.MaxTime() != 0 || empty.TimeSpan() != 0 || empty.LocationSpan() != 0 {
		t.Error("empty complex event helpers should return zero")
	}
	events := []Event{{Seq: 2, Time: 5}, {Seq: 1, Time: 5}, {Seq: 9, Time: 1}}
	SortEventsByTime(events)
	if events[0].Seq != 9 || events[1].Seq != 1 || events[2].Seq != 2 {
		t.Errorf("SortEventsByTime order wrong: %v", events)
	}
}
