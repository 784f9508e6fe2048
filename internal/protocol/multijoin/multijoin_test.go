// Tests for the distributed multi-join approach of Section III-B as the
// experiment harness configures it (Table II, row "Multi joins"): pairwise
// covering, binary-join splitting with the ring pairing, per-neighbour event
// propagation.
package multijoin

import (
	"context"
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

const approach = experiment.MultiJoin

// tableIIRow returns the approach's configuration as the harness builds it.
func tableIIRow(t *testing.T) core.Config {
	t.Helper()
	cfg, err := experiment.ConfigFor(approach, experiment.FactorySpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// factory returns the approach's handler factory as the harness builds it.
func factory(t *testing.T, spec experiment.FactorySpec) netsim.HandlerFactory {
	t.Helper()
	f, err := experiment.FactoryForSpec(approach, spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigPinsTableIIRow(t *testing.T) {
	cfg := tableIIRow(t)
	if cfg.Name != "distributed-multi-join" {
		t.Errorf("config name = %q, want %q", cfg.Name, "distributed-multi-join")
	}
	if _, ok := cfg.Checker(0).(subsume.PairwiseChecker); !ok {
		t.Errorf("checker = %T, want subsume.PairwiseChecker (same routing as operator placement)", cfg.Checker(0))
	}
	if cfg.Split != core.SplitBinaryJoin {
		t.Errorf("split policy = %v, want SplitBinaryJoin", cfg.Split)
	}
	if cfg.Propagation != core.PerNeighbor {
		t.Errorf("propagation = %v, want PerNeighbor (publish/subscribe deduplication)", cfg.Propagation)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("pinned config invalid: %v", err)
	}
}

// TestRingPairingDecomposition pins the decomposition the configuration
// selects: a k-attribute multi-join (k >= 3) splits into k binary joins
// pairing attribute i with attribute (i+1) mod k, while binary joins and
// single filters stay whole.
func TestRingPairingDecomposition(t *testing.T) {
	filters := []model.AttributeFilter{
		{Attr: model.AmbientTemperature, Range: geom.NewInterval(0, 10)},
		{Attr: model.RelativeHumidity, Range: geom.NewInterval(20, 30)},
		{Attr: model.WindSpeed, Range: geom.NewInterval(1, 5)},
	}
	sub, err := model.NewAbstractSubscription("q3", filters, geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	joins := sub.SplitBinaryJoins()
	if len(joins) != 3 {
		t.Fatalf("3-attribute multi-join split into %d operators, want 3 binary joins", len(joins))
	}
	for i, j := range joins {
		if n := j.NumFilters(); n != 2 {
			t.Errorf("binary join %d has %d filters, want 2", i, n)
		}
		if j.Root != sub.ID {
			t.Errorf("binary join %d root = %q, want the parent subscription %q", i, j.Root, sub.ID)
		}
	}

	pair, err := model.NewAbstractSubscription("q2", filters[:2], geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	if whole := pair.SplitBinaryJoins(); len(whole) != 1 || whole[0].NumFilters() != 2 {
		t.Errorf("binary join should not be decomposed further: %v", whole)
	}
}

func TestFactoryBuildsWorkingNodes(t *testing.T) {
	g := topology.NewGraph(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	e := netsim.NewEngine(g, factory(t, experiment.FactorySpec{}))
	if _, ok := e.Handler(2).(*core.Node); !ok {
		t.Fatalf("factory built %T, want *core.Node", e.Handler(2))
	}
	if err := e.AttachSensor(0, model.Sensor{ID: "a", Attr: model.AmbientTemperature}); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachSensor(2, model.Sensor{ID: "b", Attr: model.RelativeHumidity}); err != nil {
		t.Fatal(err)
	}
	sub, err := model.NewIdentifiedSubscription("q", []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(50, 80)},
		{Sensor: "b", Attr: model.RelativeHumidity, Range: geom.NewInterval(10, 30)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeContext(context.Background(), 1, sub); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 1, Sensor: "a", Attr: model.AmbientTemperature, Value: 60, Time: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 2, model.Event{Seq: 2, Sensor: "b", Attr: model.RelativeHumidity, Value: 20, Time: 110}); err != nil {
		t.Fatal(err)
	}
	if deliveries := e.DeliveriesFor("q"); len(deliveries) != 1 {
		t.Fatalf("got %d deliveries, want 1: %v", len(deliveries), deliveries)
	}
}
