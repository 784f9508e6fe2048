package centralized

import (
	"context"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// Line topology 0-1-2-3-4: the centre is node 2. A sensor sits at node 0,
// the subscriber at node 4.
func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(topology.NodeID(i-1), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func windSub(t *testing.T, id string, lo, hi float64) *model.Subscription {
	t.Helper()
	s, err := model.NewIdentifiedSubscription(model.SubscriptionID(id),
		[]model.SensorFilter{{Sensor: "d1", Attr: model.WindSpeed, Range: geom.NewInterval(lo, hi)}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pairSub(t *testing.T, id string) *model.Subscription {
	t.Helper()
	s, err := model.NewIdentifiedSubscription(model.SubscriptionID(id),
		[]model.SensorFilter{
			{Sensor: "d1", Attr: model.WindSpeed, Range: geom.NewInterval(0, 50)},
			{Sensor: "d2", Attr: model.AmbientTemperature, Range: geom.NewInterval(-10, 10)},
		}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCentralizedCenterElection(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	n := e.Handler(0).(*Node)
	if n.Center() != 2 {
		t.Errorf("centre = %d, want 2", n.Center())
	}
}

func TestCentralizedSubscriptionLoadIsPathToCenter(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	if err := e.SubscribeContext(context.Background(), 4, windSub(t, "q1", 0, 100)); err != nil {
		t.Fatal(err)
	}
	// node 4 -> 3 -> 2: two hops.
	if got := e.Metrics().Snapshot().SubscriptionLoad; got != 2 {
		t.Errorf("subscription load = %d, want 2", got)
	}
	// Subscribing at the centre itself costs nothing.
	if err := e.SubscribeContext(context.Background(), 2, windSub(t, "q2", 0, 100)); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().SubscriptionLoad; got != 2 {
		t.Errorf("subscription load = %d, want 2 (no extra hops)", got)
	}
	// No advertisements exist in this scheme.
	if err := e.AttachSensor(0, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
		t.Fatal(err)
	}
	if e.Metrics().Snapshot().AdvertisementLoad != 0 {
		t.Error("centralized scheme must not send advertisements")
	}
}

func TestCentralizedEventsAlwaysShipToCenter(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	// No subscriptions at all: the event still crosses to the centre (the
	// fixed traffic component the paper discusses).
	ev := model.Event{Seq: 1, Sensor: "d1", Attr: model.WindSpeed, Value: 5, Time: 10}
	if err := e.PublishContext(context.Background(), 0, ev); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().EventLoad; got != 2 {
		t.Errorf("event load = %d, want 2 (0->1->2)", got)
	}
}

func TestCentralizedMatchingAndResultDelivery(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	if err := e.SubscribeContext(context.Background(), 4, windSub(t, "q1", 0, 50)); err != nil {
		t.Fatal(err)
	}
	subLoad := e.Metrics().Snapshot().SubscriptionLoad

	// Matching event: 2 hops up (0->2) plus 2 hops down (2->4) = 4 units.
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 1, Sensor: "d1", Attr: model.WindSpeed, Value: 10, Time: 10}); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().EventLoad; got != 4 {
		t.Errorf("event load = %d, want 4", got)
	}
	if got := len(e.DeliveriesFor("q1")); got != 1 {
		t.Errorf("deliveries = %d, want 1", got)
	}
	// Non-matching event: still 2 hops up, nothing down.
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 2, Sensor: "d1", Attr: model.WindSpeed, Value: 500, Time: 11}); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().EventLoad; got != 6 {
		t.Errorf("event load = %d, want 6", got)
	}
	if e.Metrics().Snapshot().SubscriptionLoad != subLoad {
		t.Error("event processing must not change subscription load")
	}
}

func TestCentralizedPerSubscriptionResultSets(t *testing.T) {
	// Two identical subscriptions from the same user: the centralized scheme
	// sends the result set once per subscription (full result sets).
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	if err := e.SubscribeContext(context.Background(), 4, windSub(t, "q1", 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeContext(context.Background(), 4, windSub(t, "q2", 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 1, Sensor: "d1", Attr: model.WindSpeed, Value: 10, Time: 10}); err != nil {
		t.Fatal(err)
	}
	// 2 up + 2 down for q1 + 2 down for q2 = 6.
	if got := e.Metrics().Snapshot().EventLoad; got != 6 {
		t.Errorf("event load = %d, want 6", got)
	}
	if len(e.DeliveriesFor("q1")) != 1 || len(e.DeliveriesFor("q2")) != 1 {
		t.Error("both subscriptions should be delivered")
	}
}

func TestCentralizedMultiAttributeCorrelation(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	if err := e.SubscribeContext(context.Background(), 4, pairSub(t, "q1")); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 1, Sensor: "d1", Attr: model.WindSpeed, Value: 10, Time: 10}); err != nil {
		t.Fatal(err)
	}
	if len(e.DeliveriesFor("q1")) != 0 {
		t.Fatal("incomplete correlation must not be delivered")
	}
	if err := e.PublishContext(context.Background(), 1, model.Event{Seq: 2, Sensor: "d2", Attr: model.AmbientTemperature, Value: 0, Time: 12}); err != nil {
		t.Fatal(err)
	}
	if len(e.DeliveriesFor("q1")) != 1 {
		t.Error("correlated pair should be delivered")
	}
	seqs := e.Metrics().DeliveredSeqs("q1")
	if !seqs[1] || !seqs[2] {
		t.Errorf("delivered seqs = %v", seqs)
	}
	// Events stop being re-sent once delivered: publishing the wind reading
	// again as a new event only charges the upward path plus the downward
	// path for the new event (the old temperature reading is not re-sent).
	before := e.Metrics().Snapshot().EventLoad
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 3, Sensor: "d1", Attr: model.WindSpeed, Value: 11, Time: 13}); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().EventLoad - before; got != 4 {
		t.Errorf("incremental event load = %d, want 4", got)
	}
}

func TestCentralizedSubscriberAtCenterNoDownwardTraffic(t *testing.T) {
	e := netsim.NewEngine(lineGraph(t, 5), NewFactory(0))
	if err := e.SubscribeContext(context.Background(), 2, windSub(t, "q1", 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 0, model.Event{Seq: 1, Sensor: "d1", Attr: model.WindSpeed, Value: 10, Time: 10}); err != nil {
		t.Fatal(err)
	}
	// Only the upward 2 hops are charged.
	if got := e.Metrics().Snapshot().EventLoad; got != 2 {
		t.Errorf("event load = %d, want 2", got)
	}
	if len(e.DeliveriesFor("q1")) != 1 {
		t.Error("centre-local subscriber should still be delivered")
	}
}
