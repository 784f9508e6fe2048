package model

import (
	"testing"

	"sensorcq/internal/geom"
)

func TestProjectAttributes(t *testing.T) {
	s := mustAbstract(t, "q1", geom.NewRegion(0, 0, 100, 100), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20), af(RelativeHumidity, 40, 90))

	op := s.ProjectAttributes([]AttributeType{AmbientTemperature, WindSpeed})
	if op == nil {
		t.Fatal("projection should exist")
	}
	if op.NumFilters() != 2 {
		t.Fatalf("projected operator has %d filters", op.NumFilters())
	}
	if op.Parent != "q1" || op.Root != "q1" {
		t.Errorf("lineage wrong: parent=%s root=%s", op.Parent, op.Root)
	}
	if op.IsUserSubscription() {
		t.Error("projection is not a user subscription")
	}
	if op.Region != s.Region || op.DeltaT != s.DeltaT {
		t.Error("projection must keep region and correlation distances")
	}
	// Projection onto the full set is a clone with the same identity.
	full := s.ProjectAttributes(s.Attributes())
	if full.ID != s.ID || full.Parent != "" {
		t.Error("full projection should keep the original identity")
	}
	// Projection onto disjoint attributes is nil.
	if s.ProjectAttributes([]AttributeType{"unknown"}) != nil {
		t.Error("projection onto unfiltered attributes should be nil")
	}
	// Attribute projection of an identified subscription is nil.
	id := mustIdentified(t, "q2", 30, sf("d1", WindSpeed, 0, 1))
	if id.ProjectAttributes([]AttributeType{WindSpeed}) != nil {
		t.Error("attribute projection of identified subscription should be nil")
	}
}

func TestProjectSensors(t *testing.T) {
	s := mustIdentified(t, "q1", 30,
		sf("a", AmbientTemperature, 50, 80),
		sf("b", RelativeHumidity, 10, 30),
		sf("c", WindSpeed, 2, 20))
	op := s.ProjectSensors([]SensorID{"a", "b"})
	if op == nil || op.NumFilters() != 2 {
		t.Fatal("sensor projection wrong")
	}
	if op.ID == s.ID {
		t.Error("proper projection must have a derived ID")
	}
	if s.ProjectSensors([]SensorID{"z"}) != nil {
		t.Error("projection onto unknown sensors should be nil")
	}
	ab := mustAbstract(t, "q2", geom.WholePlane(), 30, NoSpatialConstraint, af(WindSpeed, 0, 1))
	if ab.ProjectSensors([]SensorID{"a"}) != nil {
		t.Error("sensor projection of abstract subscription should be nil")
	}
}

func TestDerivedOperatorIDsDeterministic(t *testing.T) {
	s := mustAbstract(t, "q1", geom.WholePlane(), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20), af(RelativeHumidity, 40, 90))
	a := s.ProjectAttributes([]AttributeType{WindSpeed, AmbientTemperature})
	b := s.ProjectAttributes([]AttributeType{AmbientTemperature, WindSpeed})
	if a.ID != b.ID {
		t.Errorf("projection IDs must be order independent: %s vs %s", a.ID, b.ID)
	}
}

func TestSplitBinaryJoinsRing(t *testing.T) {
	s := mustAbstract(t, "q1", geom.WholePlane(), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20), af(RelativeHumidity, 40, 90),
		af(SurfaceTemperature, -10, 10))
	joins := s.SplitBinaryJoins()
	if len(joins) != 4 {
		t.Fatalf("ring pairing of 4 attributes should give 4 binary joins, got %d", len(joins))
	}
	attrCount := map[AttributeType]int{}
	for _, j := range joins {
		if j.NumFilters() != 2 || j.Root != "q1" {
			t.Fatalf("binary join with %d filters and root %q", j.NumFilters(), j.Root)
		}
		for _, a := range j.Attributes() {
			attrCount[a]++
		}
	}
	for a, c := range attrCount {
		if c != 2 {
			t.Errorf("attribute %s appears in %d binary joins, want 2 (ring)", a, c)
		}
	}
}

func TestSplitBinaryJoinsSmallAndIdentified(t *testing.T) {
	// Two-attribute subscriptions are exact binary joins already.
	s2 := mustAbstract(t, "q2", geom.WholePlane(), 30, NoSpatialConstraint,
		af(AmbientTemperature, -5, 5), af(WindSpeed, 0, 20))
	joins2 := s2.SplitBinaryJoins()
	if len(joins2) != 1 || joins2[0].ID != "q2" {
		t.Errorf("small subscriptions should be returned unchanged, got %v", joins2)
	}
	// Identified flavour splits over sensors.
	id := mustIdentified(t, "q3", 30,
		sf("a", AmbientTemperature, 0, 1), sf("b", WindSpeed, 0, 1), sf("c", RelativeHumidity, 0, 1))
	j3 := id.SplitBinaryJoins()
	if len(j3) != 3 {
		t.Fatalf("ring pairing of 3 sensors should give 3 binary joins, got %d", len(j3))
	}
}

func TestBinaryJoinFalsePositivesExist(t *testing.T) {
	// A complex event that satisfies one binary join but not the original
	// 3-way multi-join: this is exactly the false-positive behaviour the
	// paper attributes to the multi-join approximation.
	s := mustIdentified(t, "q1", 100,
		sf("a", AmbientTemperature, 0, 10),
		sf("b", RelativeHumidity, 0, 10),
		sf("c", WindSpeed, 0, 10))
	joins := s.SplitBinaryJoins()

	// Events for a and b match, but c is missing entirely.
	window := []Event{
		ev(1, "a", AmbientTemperature, 5, 10),
		ev(2, "b", RelativeHumidity, 5, 12),
	}
	if firstMatch(s, window, nil) != nil {
		t.Fatal("the full multi-join must not match without sensor c")
	}
	matchedSomeJoin := false
	for _, j := range joins {
		if firstMatch(j, window, nil) != nil {
			matchedSomeJoin = true
		}
	}
	if !matchedSomeJoin {
		t.Fatal("at least one binary join should match (false positive)")
	}
}
