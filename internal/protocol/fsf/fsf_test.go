// Tests for the Filter-Split-Forward approach (Section V) as the experiment
// harness configures it: probabilistic set-subsumption filtering with
// per-node checker instances, simple splitting, per-neighbour
// publish/subscribe forwarding.
package fsf

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

const approach = experiment.FilterSplitForward

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

func TestConfigPinsSectionVRow(t *testing.T) {
	cfg := tableIIRow(t)
	if cfg.Name != "filter-split-forward" {
		t.Errorf("config name = %q, want %q", cfg.Name, "filter-split-forward")
	}
	if cfg.Checker == nil {
		t.Fatal("FSF needs a per-node checker factory: the set filter is stateful and nodes must not share it")
	}
	if cfg.Split != core.SplitSimple {
		t.Errorf("split policy = %v, want SplitSimple", cfg.Split)
	}
	if cfg.Propagation != core.PerNeighbor {
		t.Errorf("propagation = %v, want PerNeighbor", cfg.Propagation)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("pinned config invalid: %v", err)
	}
}

// TestPerNodeCheckerInstances pins the concurrency requirement: every call
// of the checker factory builds a fresh checker, so two nodes (or two
// engines) never share the set filter's mutable sampling state.
func TestPerNodeCheckerInstances(t *testing.T) {
	cfg := tableIIRow(t)
	a := cfg.Checker(topology.NodeID(1))
	b := cfg.Checker(topology.NodeID(2))
	c := cfg.Checker(topology.NodeID(1))
	if a == nil || b == nil || c == nil {
		t.Fatal("checker factory returned nil")
	}
	if a == b || a == c {
		t.Error("checker factory handed out a shared instance")
	}
	if _, ok := a.(*subsume.SetChecker); !ok {
		t.Errorf("checker = %T, want the probabilistic *subsume.SetChecker", a)
	}
}

// TestSetCheckerDetectsSetCovers is the property that separates FSF from the
// pairwise competitors: a subscription covered only by the UNION of stored
// subscriptions (no single one contains it) is still detected.
func TestSetCheckerDetectsSetCovers(t *testing.T) {
	mk := func(id string, lo, hi float64) *model.Subscription {
		sub, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), []model.SensorFilter{
			{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(lo, hi)},
		}, 30)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	checker := tableIIRow(t).Checker(topology.NodeID(0))
	candidate := mk("cand", 10, 90)
	left := mk("left", 0, 55)
	right := mk("right", 45, 100)
	if !checker.Subsumed(candidate, []*model.Subscription{left, right}) {
		t.Error("set cover not detected: [10,90] is inside [0,55] ∪ [45,100]")
	}
	pairwise := subsume.PairwiseChecker{}
	if pairwise.Subsumed(candidate, []*model.Subscription{left, right}) {
		t.Error("pairwise checker should miss the set cover — otherwise this test proves nothing")
	}
}

func TestFactoriesBuildWorkingNodes(t *testing.T) {
	g := topology.NewGraph(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []experiment.FactorySpec{{Seed: 7}, {Seed: 7, SetFilterError: 0.01}} {
		e := netsim.NewEngine(g, factory(t, spec))
		if _, ok := e.Handler(1).(*core.Node); !ok {
			t.Fatalf("factory built %T, want *core.Node", e.Handler(1))
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
}
