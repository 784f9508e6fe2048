// Tests for the distributed operator-placement approach of Section III-A as
// the experiment harness configures it (Table II, row "Operator placement"):
// pairwise covering detection, simple splitting, per-subscription result
// sets.
package operatorplace

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

const approach = experiment.OperatorPlacement

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
	if cfg.Name != "operator-placement" {
		t.Errorf("config name = %q, want %q", cfg.Name, "operator-placement")
	}
	if _, ok := cfg.Checker(0).(subsume.PairwiseChecker); !ok {
		t.Errorf("checker = %T, want subsume.PairwiseChecker", cfg.Checker(0))
	}
	if cfg.Split != core.SplitSimple {
		t.Errorf("split policy = %v, want SplitSimple", cfg.Split)
	}
	if cfg.Propagation != core.PerSubscription {
		t.Errorf("propagation = %v, want PerSubscription", cfg.Propagation)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("pinned config invalid: %v", err)
	}
}

func rangeSub(t *testing.T, id string, lo, hi float64) *model.Subscription {
	t.Helper()
	sub, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(lo, hi)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestPairwiseCoveringShares pins the sharing mechanism: a subscription
// nested inside an already-stored one is detected as covered (its operators
// are shared instead of forwarded), while an overlapping-but-not-nested one
// is not — pairwise covering has no notion of set covers.
func TestPairwiseCoveringShares(t *testing.T) {
	cfg := tableIIRow(t)
	wide := rangeSub(t, "wide", 0, 100)
	narrow := rangeSub(t, "narrow", 40, 60)
	straddle := rangeSub(t, "straddle", 50, 150)
	if !cfg.Checker(0).Subsumed(narrow, []*model.Subscription{wide}) {
		t.Error("nested subscription not detected as pairwise covered")
	}
	if cfg.Checker(0).Subsumed(straddle, []*model.Subscription{wide}) {
		t.Error("straddling subscription wrongly detected as covered")
	}
	if cfg.Checker(0).Subsumed(wide, []*model.Subscription{narrow}) {
		t.Error("covering direction inverted: the wide subscription is not covered by the narrow one")
	}
}

// TestSharesRoutingWithMultiJoinRow pins the paper's observation that
// operator placement and the distributed multi-join route subscriptions
// identically (same checker, same splitting would differ only for
// multi-joins): here, only the split policy and propagation distinguish the
// rows.
func TestSharesRoutingWithMultiJoinRow(t *testing.T) {
	cfg := tableIIRow(t)
	if _, ok := cfg.Checker(0).(subsume.PairwiseChecker); !ok {
		t.Fatalf("checker = %T, want the same pairwise checker the multi-join row uses", cfg.Checker(0))
	}
	if cfg.Split == core.SplitBinaryJoin {
		t.Error("operator placement must store whole multi-joins, not binary joins")
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
	if _, ok := e.Handler(0).(*core.Node); !ok {
		t.Fatalf("factory built %T, want *core.Node", e.Handler(0))
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
}
