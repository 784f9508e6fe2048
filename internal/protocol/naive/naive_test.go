// Tests for the naive baseline of Section VI as the experiment harness
// configures it: Table II's "Naive" row (no filtering, simple splitting,
// per-subscription result sets), and that the resulting nodes deliver.
package naive

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

const approach = experiment.Naive

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
	if cfg.Name != "naive" {
		t.Errorf("config name = %q, want %q", cfg.Name, "naive")
	}
	if _, ok := cfg.Checker.(subsume.NoneChecker); !ok {
		t.Errorf("checker = %T, want subsume.NoneChecker (the naive approach never filters)", cfg.Checker)
	}
	if cfg.CheckerFactory != nil {
		t.Error("naive needs no per-node checker state")
	}
	if cfg.Split != core.SplitSimple {
		t.Errorf("split policy = %v, want SplitSimple", cfg.Split)
	}
	if cfg.Propagation != core.PerSubscription {
		t.Errorf("propagation = %v, want PerSubscription (one result set per subscription)", cfg.Propagation)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("pinned config invalid: %v", err)
	}
}

// TestNoneCheckerNeverFilters is the defining property of the baseline: even
// a subscription identical to an already-stored one is not subsumed, so
// every subscription travels and is evaluated separately.
func TestNoneCheckerNeverFilters(t *testing.T) {
	cfg := tableIIRow(t)
	sub, err := model.NewIdentifiedSubscription("q", []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(0, 100)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Checker.Subsumed(sub, []*model.Subscription{sub.Clone()}) {
		t.Error("NoneChecker subsumed a subscription; the naive approach must never filter")
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
	deliveries := e.DeliveriesFor("q")
	if len(deliveries) != 1 {
		t.Fatalf("got %d deliveries, want 1: %v", len(deliveries), deliveries)
	}
	if d := deliveries[0]; d.Node != 1 || len(d.Events) != 2 {
		t.Errorf("unexpected delivery %+v", d)
	}
}
