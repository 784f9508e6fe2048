package experiment_test

import (
	"context"
	"fmt"
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/protocol/centralized"
	"sensorcq/internal/topology"
)

// walkthroughGraph is the paper's six-node topology:
//
//	sensor a (0)   sensor b (1)
//	        \       /
//	         hub (3) --- hub (4) --- user (5)
//	                      |
//	                 sensor c (2)
func walkthroughGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(6)
	for _, e := range [][2]topology.NodeID{{5, 4}, {4, 3}, {3, 0}, {3, 1}, {4, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func identified(t *testing.T, id string, lo, hi float64, deltaT model.Timestamp) *model.Subscription {
	t.Helper()
	sub, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(lo, hi)},
		{Sensor: "b", Attr: model.RelativeHumidity, Range: geom.NewInterval(lo, hi)},
	}, deltaT)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func attachWalkthroughSensors(t *testing.T, rt netsim.Runtime) {
	t.Helper()
	sensors := []struct {
		node   topology.NodeID
		sensor model.Sensor
	}{
		{0, model.Sensor{ID: "a", Attr: model.AmbientTemperature}},
		{1, model.Sensor{ID: "b", Attr: model.RelativeHumidity}},
		{2, model.Sensor{ID: "c", Attr: model.WindSpeed}},
	}
	for _, s := range sensors {
		if err := rt.AttachSensor(s.node, s.sensor); err != nil {
			t.Fatal(err)
		}
	}
}

// publishPair injects one matching (a, b) reading pair and returns the next
// free sequence number.
func publishPair(t *testing.T, rt netsim.Runtime, seq uint64, value float64, at model.Timestamp) uint64 {
	t.Helper()
	if err := rt.PublishContext(context.Background(), 0, model.Event{Seq: seq, Sensor: "a", Attr: model.AmbientTemperature, Value: value, Time: at}); err != nil {
		t.Fatal(err)
	}
	if err := rt.PublishContext(context.Background(), 1, model.Event{Seq: seq + 1, Sensor: "b", Attr: model.RelativeHumidity, Value: value, Time: at + 2}); err != nil {
		t.Fatal(err)
	}
	return seq + 2
}

// coreNode fetches a protocol node for white-box inspection.
func coreNode(t *testing.T, rt netsim.Runtime, n topology.NodeID) *core.Node {
	t.Helper()
	node, ok := rt.Handler(n).(*core.Node)
	if !ok {
		t.Fatalf("handler of node %d is %T, want *core.Node", n, rt.Handler(n))
	}
	return node
}

// TestUnsubscribeRetractsForwardedOperators drives the full retraction story
// on the walkthrough topology for every approach: a broad subscription B and
// a strict subscription S it covers are registered at the user node; B is
// then retracted. The covering approaches must re-expose S (re-split it
// along the reverse advertisement paths rather than orphan it), every
// approach must stop delivering to B while S keeps receiving results, and a
// later re-registration of B must behave like a fresh subscription.
func TestUnsubscribeRetractsForwardedOperators(t *testing.T) {
	cases := []struct {
		name     string
		factory  netsim.HandlerFactory
		covering bool // S is filtered out as covered while B is active
		core     bool // handlers are *core.Node (white-box checks possible)
	}{
		{string(experiment.Naive), factoryFor(t, experiment.Naive, 0), false, true},
		{string(experiment.OperatorPlacement), factoryFor(t, experiment.OperatorPlacement, 0), true, true},
		{string(experiment.MultiJoin), factoryFor(t, experiment.MultiJoin, 0), true, true},
		{string(experiment.FilterSplitForward), factoryFor(t, experiment.FilterSplitForward, 7), true, true},
		{centralized.Name, centralized.NewFactory(0), false, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rt := netsim.NewEngine(walkthroughGraph(t), c.factory)
			attachWalkthroughSensors(t, rt)

			broad := identified(t, "B", 0, 100, 30)
			strict := identified(t, "S", 20, 40, 30)
			if err := rt.SubscribeContext(context.Background(), 5, broad); err != nil {
				t.Fatal(err)
			}
			if err := rt.SubscribeContext(context.Background(), 5, strict); err != nil {
				t.Fatal(err)
			}

			if c.covering {
				// S is subsumed by B at the user node: stored for local
				// delivery but not forwarded into the network.
				user := coreNode(t, rt, 5)
				if got := len(user.Subscriptions(5).Covered()); got != 1 {
					t.Fatalf("covered at user node = %d, want 1 (S subsumed by B)", got)
				}
				if hub := coreNode(t, rt, 4); hub.Subscriptions(5).Seen("S") {
					t.Fatalf("covered subscription S leaked into the network")
				}
			}

			// Both subscriptions deliver while registered (covered locals
			// are delivered from the covering operator's result flow).
			seq := publishPair(t, rt, 1, 30, 100)
			if got := len(rt.DeliveriesFor("B")); got != 1 {
				t.Fatalf("B deliveries = %d, want 1", got)
			}
			if got := len(rt.DeliveriesFor("S")); got != 1 {
				t.Fatalf("S deliveries = %d, want 1", got)
			}

			eventsBefore := rt.Metrics().Snapshot().EventLoad
			if err := rt.Unsubscribe(5, "B"); err != nil {
				t.Fatal(err)
			}
			if rt.Metrics().Snapshot().UnsubscriptionLoad == 0 {
				t.Error("retraction generated no unsubscription messages")
			}

			if c.core {
				// B is gone from the whole reverse forwarding path...
				for _, n := range []topology.NodeID{4, 3} {
					if coreNode(t, rt, n).Subscriptions(n + 1).Seen("B") {
						t.Errorf("node %d still stores B after retraction", n)
					}
				}
				if coreNode(t, rt, 0).Subscriptions(3).Seen("B/[a]") {
					t.Error("node 0 still stores the split operator B/[a]")
				}
				if len(coreNode(t, rt, 5).LocalSubscriptions()) != 1 {
					t.Error("user node should keep exactly the surviving local subscription")
				}
			}
			if c.covering {
				// ...and S took its place: re-exposed, re-split, forwarded.
				if hub := coreNode(t, rt, 4); !hub.Subscriptions(5).Seen("S") {
					t.Error("S was not re-exposed to the network after B's retraction")
				}
				if src := coreNode(t, rt, 0); !src.Subscriptions(3).Seen("S/[a]") {
					t.Error("S was not re-split down to the sources")
				}
			}

			// Post-retraction: S keeps receiving, B receives nothing.
			seq = publishPair(t, rt, seq, 30, 200)
			if got := len(rt.DeliveriesFor("B")); got != 1 {
				t.Errorf("B deliveries after retraction = %d, want 1 (no new)", got)
			}
			if got := len(rt.DeliveriesFor("S")); got != 2 {
				t.Errorf("S deliveries after retraction = %d, want 2", got)
			}
			if rt.Metrics().Snapshot().EventLoad == eventsBefore {
				t.Error("surviving subscription stopped generating event traffic")
			}

			// Re-registering the retracted ID works like a fresh
			// subscription: the dedup tables were released network-wide.
			if err := rt.SubscribeContext(context.Background(), 5, identified(t, "B", 0, 100, 30)); err != nil {
				t.Fatal(err)
			}
			publishPair(t, rt, seq, 30, 300)
			if got := len(rt.DeliveriesFor("B")); got != 2 {
				t.Errorf("B deliveries after re-subscribe = %d, want 2", got)
			}
			if got := len(rt.DeliveriesFor("S")); got != 3 {
				t.Errorf("S deliveries after re-subscribe = %d, want 3", got)
			}

			// Retracting an unknown ID anywhere is a silent no-op.
			if err := rt.Unsubscribe(2, "no-such-subscription"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnsubscribeSharedOperatorKeepsDependants exercises operator sharing
// the other way round: the covering subscription stays and the covered one
// is retracted — nothing observable may change for the survivor — and then
// the covering one is retracted too, after which the network must be free of
// both (no deliveries, no event forwarding for matching readings).
func TestUnsubscribeSharedOperatorKeepsDependants(t *testing.T) {
	for _, approach := range []struct {
		name    string
		factory netsim.HandlerFactory
	}{
		{string(experiment.OperatorPlacement), factoryFor(t, experiment.OperatorPlacement, 0)},
		{string(experiment.FilterSplitForward), factoryFor(t, experiment.FilterSplitForward, 7)},
	} {
		t.Run(approach.name, func(t *testing.T) {
			rt := netsim.NewEngine(walkthroughGraph(t), approach.factory)
			attachWalkthroughSensors(t, rt)
			if err := rt.SubscribeContext(context.Background(), 5, identified(t, "B", 0, 100, 30)); err != nil {
				t.Fatal(err)
			}
			if err := rt.SubscribeContext(context.Background(), 5, identified(t, "S", 20, 40, 30)); err != nil {
				t.Fatal(err)
			}
			// Retract the covered subscription: the covering one keeps
			// delivering.
			if err := rt.Unsubscribe(5, "S"); err != nil {
				t.Fatal(err)
			}
			seq := publishPair(t, rt, 1, 30, 100)
			if got := len(rt.DeliveriesFor("B")); got != 1 {
				t.Fatalf("B deliveries = %d, want 1", got)
			}
			if got := len(rt.DeliveriesFor("S")); got != 0 {
				t.Fatalf("retracted S delivered %d times", got)
			}
			// Retract the covering one as well: the network is quiet now.
			if err := rt.Unsubscribe(5, "B"); err != nil {
				t.Fatal(err)
			}
			before := rt.Metrics().Snapshot().EventLoad
			publishPair(t, rt, seq, 30, 200)
			if got := rt.Metrics().Snapshot().EventLoad; got != before {
				t.Errorf("event load grew from %d to %d with no subscription registered", before, got)
			}
			if got := len(rt.Deliveries()); got != 1 {
				t.Errorf("deliveries = %d, want 1 (only the pre-retraction one)", got)
			}
		})
	}
}

// TestUnsubscribeIsolatesApproachTraffic sanity-checks that a fully churned
// system returns to (near) its subscription-free event traffic: register
// many overlapping subscriptions, retract them all, and verify matching
// readings cross no link they would not cross in an empty network.
func TestUnsubscribeIsolatesApproachTraffic(t *testing.T) {
	for i, factory := range []netsim.HandlerFactory{
		factoryFor(t, experiment.Naive, 0),
		factoryFor(t, experiment.OperatorPlacement, 0),
		factoryFor(t, experiment.MultiJoin, 0),
		factoryFor(t, experiment.FilterSplitForward, 3),
	} {
		t.Run(fmt.Sprintf("approach=%d", i), func(t *testing.T) {
			rt := netsim.NewEngine(walkthroughGraph(t), factory)
			attachWalkthroughSensors(t, rt)
			for s := 0; s < 8; s++ {
				lo, hi := float64(s), 100-float64(s)
				if err := rt.SubscribeContext(context.Background(), 5, identified(t, fmt.Sprintf("q%d", s), lo, hi, 30)); err != nil {
					t.Fatal(err)
				}
			}
			for s := 0; s < 8; s++ {
				if err := rt.Unsubscribe(5, model.SubscriptionID(fmt.Sprintf("q%d", s))); err != nil {
					t.Fatal(err)
				}
			}
			before := rt.Metrics().Snapshot().EventLoad
			publishPair(t, rt, 1, 50, 100)
			if got := rt.Metrics().Snapshot().EventLoad; got != before {
				t.Errorf("event load grew from %d to %d after full churn", before, got)
			}
			if got := len(rt.Deliveries()); got != 0 {
				t.Errorf("deliveries = %d, want 0 after full churn", got)
			}
		})
	}
}
